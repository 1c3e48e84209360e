package trace

import (
	"bytes"
	"testing"

	"repro/internal/exact"
)

// certFixture is a small, genuinely checkable certificate: the
// covering model min x0+x1 s.t. x0+x1 >= 1 over [0,1]^2 with the
// optimal incumbent (1,0) and the proving dual y = 1.
func certFixture() *exact.Certificate {
	c := &exact.Certificate{
		Version:     1,
		Label:       "cover",
		Kind:        exact.KindOptimal,
		Objective:   "1",
		ObjIntegral: true,
		IntVars:     []int{0, 1},
		X:           []string{"1", "0"},
		DualY:       []string{"1"},
		Problem: &exact.Problem{
			Obj:  []string{"1", "1"},
			Lo:   []string{"0", "0"},
			Hi:   []string{"1", "1"},
			Rows: []exact.Row{{Idx: []int{0, 1}, Val: []string{"1", "1"}, Lo: "1", Hi: "inf"}},
		},
	}
	c.Check()
	return c
}

// TestRecordingCertificateRoundTrip drives the additive "cert" line
// through both codec forms: the certificate must survive
// encode→decode and still re-verify offline from the decoded bytes.
func TestRecordingCertificateRoundTrip(t *testing.T) {
	cert := certFixture()
	if !cert.Valid {
		t.Fatalf("fixture certificate invalid: %+v", cert.Checks)
	}
	r := NewRecorder(0)
	r.SetLabel("cover")
	r.Node(NodeRec{ID: 1, Col: -1, LP: "optimal"})
	r.Finalize("optimal", 0, 1, 3)
	r.SetCertificate(cert)
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		if err := r.Snapshot().Encode(&buf, compress); err != nil {
			t.Fatalf("encode(compress=%v): %v", compress, err)
		}
		got, err := DecodeRecording(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode(compress=%v): %v", compress, err)
		}
		dc := got.Certificate
		if dc == nil {
			t.Fatalf("decoded recording lost its certificate (compress=%v)", compress)
		}
		if dc.Kind != exact.KindOptimal || dc.Label != "cover" {
			t.Fatalf("certificate identity drifted: %+v", dc)
		}
		dc.Check() // offline re-verification, exactly what tpreplay -certify does
		if !dc.Valid {
			t.Fatalf("decoded certificate failed re-verification: %+v", dc.Checks)
		}
	}
}

// TestRecordingWithoutCertificateDecodesNil: recordings captured
// before (or without) certification must keep decoding, with a nil
// Certificate — the "cert" line is additive and the version stays 1.
func TestRecordingWithoutCertificateDecodesNil(t *testing.T) {
	r := NewRecorder(0)
	r.Finalize("optimal", 0, 1, 1)
	var buf bytes.Buffer
	if err := r.Snapshot().Encode(&buf, false); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"rk":"cert"`)) {
		t.Fatal("certificate line emitted for a recording without one")
	}
	got, err := DecodeRecording(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Certificate != nil {
		t.Fatalf("phantom certificate decoded: %+v", got.Certificate)
	}
}

// TestSetCertificateNilRecorder: the off state stays a no-op.
func TestSetCertificateNilRecorder(t *testing.T) {
	var r *Recorder
	r.SetCertificate(certFixture()) // must not panic
	if r.Snapshot() != nil {
		t.Fatal("nil recorder produced a snapshot")
	}
}
