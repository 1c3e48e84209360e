package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/exact"
)

// TestV1CertificateEndpoint: a job submitted with options.certify
// serves its certificate over GET /v1/jobs/{id}/certificate, and the
// served JSON re-verifies client-side — the whole point of shipping
// the proof instead of the verdict.
func TestV1CertificateEndpoint(t *testing.T) {
	s := New(Config{Workers: 1})
	defer closeBounded(t, s)
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	req := fastRequest()
	req.Options.Certify = true
	var job JobInfo
	postV1(t, ts.URL+"/v1/jobs", req, http.StatusAccepted, &job)
	if info := waitFinished(t, s, job.ID, 60*time.Second); info.Status != StatusDone {
		t.Fatalf("job ended %s", info.Status)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/certificate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var cert exact.Certificate
	if err := json.NewDecoder(resp.Body).Decode(&cert); err != nil {
		t.Fatal(err)
	}
	if cert.Kind == "" || cert.Problem == nil {
		t.Fatalf("certificate not self-contained: %+v", cert)
	}
	cert.Check() // client-side re-verification from the wire bytes
	if !cert.Valid {
		t.Fatalf("served certificate failed re-verification: %+v", cert.Checks)
	}
}

// TestV1CertificateAbsent: a job submitted without options.certify
// answers 404 with the no_certificate code, pointing the caller at the
// option rather than leaving an empty 200 to misread.
func TestV1CertificateAbsent(t *testing.T) {
	s := New(Config{Workers: 1})
	defer closeBounded(t, s)
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	var job JobInfo
	postV1(t, ts.URL+"/v1/jobs", fastRequest(), http.StatusAccepted, &job)
	if info := waitFinished(t, s, job.ID, 60*time.Second); info.Status != StatusDone {
		t.Fatalf("job ended %s", info.Status)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/certificate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "no_certificate" {
		t.Fatalf("error code %q, want no_certificate", env.Error.Code)
	}
}
