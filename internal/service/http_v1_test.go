package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// postV1 marshals req and POSTs it to url, decoding the response into
// out when the status matches want.
func postV1(t *testing.T, url string, req *Request, want int, out any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, want, b)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestV1EventsSSE drives the observability tentpole end to end: submit
// a job over POST /v1/jobs, stream GET /v1/jobs/{id}/events until the
// server ends the stream, and check the event taxonomy — a model event,
// a root bound, at least one incumbent, a monotone best bound, and the
// terminal job transition last.
func TestV1EventsSSE(t *testing.T) {
	s := New(Config{Workers: 2})
	defer closeBounded(t, s)
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	// no prime heuristic: the incumbent must come from the branch and
	// bound itself, so the stream carries real incumbent events
	req := fastRequest()
	req.Options.PrimeHeuristic = false

	var job JobInfo
	postV1(t, ts.URL+"/v1/jobs", req, http.StatusAccepted, &job)
	if job.ID == "" {
		t.Fatal("submit returned no job ID")
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: Content-Type %q", ct)
	}

	// the stream ends when the job finalizes and its ring closes; the
	// server closes the response body, so reading to EOF is the contract
	var events []trace.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e trace.Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &e); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}

	kinds := map[trace.Kind]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	for _, k := range []trace.Kind{trace.KindModel, trace.KindRoot, trace.KindIncumbent, trace.KindJob} {
		if kinds[k] == 0 {
			t.Errorf("no %q event in stream (got %v)", k, kinds)
		}
	}

	// the proved bound never regresses across root/node/bound/status
	prev := -1e18
	for _, e := range events {
		switch e.Kind {
		case trace.KindRoot, trace.KindNode, trace.KindBound, trace.KindStatus:
			if e.Bound < prev-1e-9 {
				t.Fatalf("bound regressed: %g after %g (seq %d)", e.Bound, prev, e.Seq)
			}
			if e.Bound > prev {
				prev = e.Bound
			}
		}
	}

	last := events[len(events)-1]
	if last.Kind != trace.KindJob {
		t.Fatalf("last event kind %q, want job", last.Kind)
	}
	if last.Status != string(StatusDone) {
		t.Fatalf("terminal job status %q, want done", last.Status)
	}
	if !last.HasIncumbent {
		t.Fatal("terminal job event carries no incumbent")
	}

	info := waitFinished(t, s, job.ID, time.Second)
	if info.Status != StatusDone {
		t.Fatalf("job finished %s: %s", info.Status, info.Error)
	}
}

// TestV1ErrorEnvelope checks the uniform {"error":{code,message}} body
// and status mapping of the v1 surface.
func TestV1ErrorEnvelope(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close(context.Background())
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	check := func(resp *http.Response, wantStatus int, wantCode string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
		}
		var e errorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("decoding envelope: %v", err)
		}
		if e.Error.Code != wantCode {
			t.Fatalf("code %q, want %q", e.Error.Code, wantCode)
		}
		if e.Error.Message == "" {
			t.Fatal("empty error message")
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusNotFound, "not_found")

	resp, err = http.Get(ts.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusNotFound, "not_found")

	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusBadRequest, "bad_request")

	resp, err = http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"graph":""}`))
	if err != nil {
		t.Fatal(err)
	}
	check(resp, http.StatusBadRequest, "bad_request")
}

// TestV1MetricsPrometheus checks the text exposition endpoint.
func TestV1MetricsPrometheus(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close(context.Background())
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	if _, err := s.Solve(context.Background(), fastRequest()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE tpserve_workers gauge",
		"# TYPE tpserve_jobs_submitted_total counter",
		"tpserve_jobs_submitted_total 1",
		"tpserve_jobs_completed_total 1",
		"tpserve_bb_nodes_total",
		"tpserve_lp_pivots_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestRemovedAliases checks the end state of the pre-/v1 deprecation
// cycle: the unversioned paths are gone and answer with the typed 404
// envelope naming their /v1 successor, except GET /healthz, which
// survives as a permanent liveness alias for probes configured outside
// the API's versioning.
func TestRemovedAliases(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close(context.Background())
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	checkGone := func(resp *http.Response, path, successor string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
		var e errorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: 404 body is not the error envelope: %v", path, err)
		}
		if e.Error.Code != "gone" {
			t.Errorf("%s: error code %q, want gone", path, e.Error.Code)
		}
		if !strings.Contains(e.Error.Message, successor) {
			t.Errorf("%s: message %q does not name successor %s", path, e.Error.Message, successor)
		}
	}

	for _, tc := range []struct{ alias, successor string }{
		{"/metrics", "/v1/stats"},
		{"/jobs/some-id", "/v1/jobs/some-id"},
	} {
		resp, err := http.Get(ts.URL + tc.alias)
		if err != nil {
			t.Fatal(err)
		}
		checkGone(resp, "GET "+tc.alias, tc.successor)
	}
	body, _ := json.Marshal(fastRequest())
	for _, tc := range []struct{ alias, successor string }{
		{"/solve", "/v1/solve"},
		{"/jobs", "/v1/jobs"},
	} {
		resp, err := http.Post(ts.URL+tc.alias, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		checkGone(resp, "POST "+tc.alias, tc.successor)
	}

	// unknown paths outside the alias set get the envelope too
	resp, err := http.Get(ts.URL + "/no/such/endpoint")
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown path: status %d, want 404", resp.StatusCode)
		}
		var e errorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("unknown path: 404 body is not the error envelope: %v", err)
		}
		if e.Error.Code != "not_found" {
			t.Errorf("unknown path: error code %q, want not_found", e.Error.Code)
		}
	}()

	// the liveness exception: /healthz still answers, identically to
	// /v1/healthz and without deprecation headers
	for _, path := range []string{"/healthz", "/v1/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if resp.Header.Get("Deprecation") != "" {
			t.Errorf("GET %s: unexpected Deprecation header", path)
		}
		if !strings.Contains(string(b), `"ok"`) {
			t.Errorf("GET %s: body %s", path, b)
		}
	}
}

// TestRemovedOptionSpellings checks strict decoding on all five body
// decoders (solve, jobs, batch items, amend, sweep): a removed option
// name is a 400 "gone" naming its successor, a misspelled field — in
// the options or inside an object device — and a numeric enum are 400
// bad_request, and the option set of the CI introspection step still
// decodes.
func TestRemovedOptionSpellings(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var base JobInfo
	postV1(t, ts.URL+"/v1/solve", fastRequest(), http.StatusOK, &base)
	r := fastRequest()
	spec, err := json.Marshal(map[string]any{"graph": r.Graph, "allocation": r.Allocation})
	if err != nil {
		t.Fatal(err)
	}
	// each path embeds the spec fields, one options object and one
	// device object
	paths := []struct {
		name, url string
		accepted  int
		body      string
	}{
		{"solve", "/v1/solve", http.StatusOK,
			`{%[1]s,"device":%[3]s,"options":%[2]s}`},
		{"jobs", "/v1/jobs", http.StatusAccepted,
			`{%[1]s,"device":%[3]s,"options":%[2]s}`},
		{"batch", "/v1/batch", http.StatusAccepted,
			`{"items":[{%[1]s,"device":%[3]s,"options":%[2]s}]}`},
		{"amend", "/v1/jobs/" + base.ID + "/amend", http.StatusAccepted,
			`{"device":%[3]s,"options":%[2]s}`},
		{"sweep", "/v1/sweep", http.StatusOK,
			`{%[1]s,"device":%[3]s,"options":%[2]s,"sweep":{"alpha":[0.9]}}`},
	}
	const dev = `{"name":"xc4010"}`
	cases := []struct {
		name, options, device string
		// code "" expects the path's success status; otherwise a 400
		// whose message mentions the given name
		code, mentions string
	}{
		{"parallelism", `{"n":2,"l":2,"parallelism":4}`, dev, "gone", "options.search.parallelism"},
		{"parallel_threshold", `{"n":2,"l":2,"parallel_threshold":-1}`, dev, "gone", "options.search.threshold"},
		{"branch", `{"n":2,"l":2,"branch":"most-fractional"}`, dev, "gone", "options.search.branch"},
		{"fortet", `{"n":2,"l":2,"fortet":true}`, dev, "gone", "options.linearization"},
		{"misspelled option", `{"n":2,"l":2,"tightend":true}`, dev, "bad_request", "tightend"},
		{"misspelled device field", `{"n":2,"l":2}`, `{"capcity_fg":300}`, "bad_request", "capcity_fg"},
		{"numeric enum", `{"n":2,"l":2,"search":{"mode":2}}`, dev, "bad_request", "mode"},
		{"ci introspection body",
			`{"n":2,"l":2,"base":true,"disable_probe":true,"search":{"parallelism":4},"time_limit_ms":60000}`,
			dev, "", ""},
	}
	for _, p := range paths {
		for _, tc := range cases {
			body := fmt.Sprintf(p.body, spec[1:len(spec)-1], tc.options, tc.device)
			resp, err := http.Post(ts.URL+p.url, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if tc.code == "" {
				if resp.StatusCode != p.accepted {
					t.Errorf("%s %s: status %d, want %d: %s", p.name, tc.name, resp.StatusCode, p.accepted, b)
				}
				continue
			}
			var e errorEnvelope
			if err := json.Unmarshal(b, &e); err != nil || resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400 envelope: %s", p.name, tc.name, resp.StatusCode, b)
				continue
			}
			if e.Error.Code != tc.code || !strings.Contains(e.Error.Message, tc.mentions) {
				t.Errorf("%s %s: %s %q, want code %s naming %s", p.name, tc.name,
					e.Error.Code, e.Error.Message, tc.code, tc.mentions)
			}
		}
	}
}

// TestStatsChurn hammers Stats() while jobs are submitted, cancelled
// and completed concurrently. Run under -race it proves the metrics
// counters are consistently locked; the final snapshot must balance.
func TestStatsChurn(t *testing.T) {
	s := New(Config{Workers: 4})
	defer closeBounded(t, s)

	const (
		submitters    = 4
		perSubmitter  = 6
		totalSubmits  = submitters * perSubmitter
		statsReaders  = 4
		statsDuration = 200 * time.Millisecond
	)

	var wg sync.WaitGroup
	ids := make(chan string, totalSubmits)

	stop := make(chan struct{})
	for r := 0; r < statsReaders; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				if st.Submitted < st.Completed+st.Failed+st.Cancelled {
					t.Errorf("stats ran ahead: %+v", st)
					return
				}
				_ = st.Workers
			}
		}()
	}

	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				req := fastRequest()
				id, err := s.Submit(req)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				// cancel a third of the jobs right away: some while
				// queued, some mid-solve, some already finished
				if i%3 == 0 {
					s.Cancel(id)
				}
				ids <- id
			}
		}(g)
	}

	deadline := time.After(statsDuration)
	<-deadline
	close(stop)

	collected := make([]string, 0, totalSubmits)
	for len(collected) < totalSubmits {
		collected = append(collected, <-ids)
	}
	for _, id := range collected {
		waitFinished(t, s, id, 30*time.Second)
	}
	wg.Wait()

	st := s.Stats()
	if st.Submitted != totalSubmits {
		t.Fatalf("submitted = %d, want %d", st.Submitted, totalSubmits)
	}
	if got := st.Completed + st.Failed + st.Cancelled; got != totalSubmits {
		t.Fatalf("completed %d + failed %d + cancelled %d = %d, want %d",
			st.Completed, st.Failed, st.Cancelled, got, totalSubmits)
	}
	if st.Failed != 0 {
		t.Fatalf("failed = %d, want 0", st.Failed)
	}
	// the running gauge may lag a cancelled job's terminal status by a
	// scheduling tick (Cancel settles the job while its worker is still
	// unwinding run), so poll for the drain instead of asserting on one
	// snapshot
	deadlineAt := time.Now().Add(10 * time.Second)
	for st.Running != 0 || st.Queued != 0 {
		if time.Now().After(deadlineAt) {
			t.Fatalf("service not drained: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
		st = s.Stats()
	}
}
