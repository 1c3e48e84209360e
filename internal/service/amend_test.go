package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestAmendLifecycle drives the amend tentpole at the service level: a
// finished job is amended with a device edit, the amended job carries
// the lineage, dispatches down a fast path, and its result equals a
// cold solve of the same merged request.
func TestAmendLifecycle(t *testing.T) {
	s := New(Config{Workers: 2})
	defer closeBounded(t, s)

	ctx := context.Background()
	base, err := s.Solve(ctx, fastRequest())
	if err != nil {
		t.Fatal(err)
	}
	if base.Status != StatusDone || !base.Result.Optimal {
		t.Fatalf("base job %s: %+v", base.ID, base)
	}

	// relax the capacity: a bounds-class edit that must re-solve warm
	amendID, err := s.Amend(base.ID, &AmendRequest{Device: &DeviceSpec{CapacityFG: 200}})
	if err != nil {
		t.Fatal(err)
	}
	info := waitFinished(t, s, amendID, 30*time.Second)
	if info.Status != StatusDone {
		t.Fatalf("amended job: %s (%s)", info.Status, info.Error)
	}
	if info.Amend == nil {
		t.Fatal("amended job carries no lineage")
	}
	if info.Amend.Of != base.ID || info.Amend.Generation != 1 {
		t.Fatalf("lineage %+v, want of=%s gen=1", info.Amend, base.ID)
	}
	if info.Amend.Class != "bounds" {
		t.Fatalf("device edit classified %q, want bounds", info.Amend.Class)
	}
	if info.Amend.Path == "cold" {
		t.Fatal("bounds-class amend dispatched cold")
	}

	// differential: the amended result must equal a cold solve of the
	// merged request on a fresh service
	cold := New(Config{Workers: 1})
	defer closeBounded(t, cold)
	req := fastRequest()
	req.Device.CapacityFG = 200
	want, err := cold.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if info.Result.Feasible != want.Result.Feasible || info.Result.Comm != want.Result.Comm {
		t.Fatalf("amend result %+v, cold %+v", info.Result, want.Result)
	}

	// amend the amend: generation increments, lineage points at it
	id2, err := s.Amend(amendID, &AmendRequest{Device: &DeviceSpec{ScratchMem: 32}})
	if err != nil {
		t.Fatal(err)
	}
	info2 := waitFinished(t, s, id2, 30*time.Second)
	if info2.Amend == nil || info2.Amend.Of != amendID || info2.Amend.Generation != 2 {
		t.Fatalf("second-generation lineage %+v", info2.Amend)
	}

	st := s.Stats()
	if st.Amends != 2 {
		t.Fatalf("stats amends = %d, want 2", st.Amends)
	}
	if st.Delta.Warm+st.Delta.Reuse == 0 {
		t.Fatalf("no fast-path dispatches in %+v", st.Delta)
	}
}

// TestAmendErrors pins the typed failures: unknown base jobs and bases
// that have not finished yet.
func TestAmendErrors(t *testing.T) {
	s := New(Config{Workers: 1})
	defer closeBounded(t, s)

	if _, err := s.Amend("nope", &AmendRequest{}); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown base: %v", err)
	}

	id, err := s.Submit(heavyRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Amend(id, &AmendRequest{}); !errors.Is(err, ErrJobRunning) {
		t.Fatalf("running base: %v", err)
	}
	s.Cancel(id)
	waitFinished(t, s, id, 10*time.Second)

	// a cancelled base is terminal, so amending it is allowed (it just
	// re-solves cold: nothing was cached)
	if _, err := s.Amend(id, &AmendRequest{Options: &SolveOptions{TimeLimitMS: 1}}); err != nil {
		t.Fatalf("amending a cancelled base: %v", err)
	}
}

// TestAmendDedupe: repeated identical amends share one canonical key,
// so the second is served from the result cache.
func TestAmendDedupe(t *testing.T) {
	s := New(Config{Workers: 2})
	defer closeBounded(t, s)
	ctx := context.Background()

	base, err := s.Solve(ctx, fastRequest())
	if err != nil {
		t.Fatal(err)
	}
	edit := &AmendRequest{Device: &DeviceSpec{CapacityFG: 200}}
	id1, err := s.Amend(base.ID, edit)
	if err != nil {
		t.Fatal(err)
	}
	first := waitFinished(t, s, id1, 30*time.Second)
	id2, err := s.Amend(base.ID, edit)
	if err != nil {
		t.Fatal(err)
	}
	second := waitFinished(t, s, id2, 30*time.Second)
	if !second.CacheHit {
		t.Fatal("repeated identical amend did not hit the cache")
	}
	if first.Result.Comm != second.Result.Comm {
		t.Fatalf("deduped amend disagrees: %d vs %d", first.Result.Comm, second.Result.Comm)
	}
}

// TestConcurrentAmends races many amends of one base job — half with
// one edit, half with another — and checks every job settles with a
// consistent verdict. Run under -race in CI.
func TestConcurrentAmends(t *testing.T) {
	s := New(Config{Workers: 4})
	defer closeBounded(t, s)
	ctx := context.Background()

	base, err := s.Solve(ctx, fastRequest())
	if err != nil {
		t.Fatal(err)
	}
	edits := []*AmendRequest{
		{Device: &DeviceSpec{CapacityFG: 200}},
		{Device: &DeviceSpec{ScratchMem: 32}},
	}
	const fan = 8
	ids := make([]string, fan)
	var wg sync.WaitGroup
	errs := make([]error, fan)
	for i := 0; i < fan; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i], errs[i] = s.Amend(base.ID, edits[i%2])
		}(i)
	}
	wg.Wait()
	comms := map[int][]int{}
	for i := 0; i < fan; i++ {
		if errs[i] != nil {
			t.Fatalf("amend %d: %v", i, errs[i])
		}
		info := waitFinished(t, s, ids[i], 30*time.Second)
		if info.Status != StatusDone {
			t.Fatalf("amend %d: %s (%s)", i, info.Status, info.Error)
		}
		comms[i%2] = append(comms[i%2], info.Result.Comm)
	}
	for edit, cs := range comms {
		for _, c := range cs {
			if c != cs[0] {
				t.Fatalf("edit %d verdicts diverge: %v", edit, cs)
			}
		}
	}
}

// TestAmendCertifiedE2E is the bench-smoke amend flow: a certified
// solve, a bounds edit amended onto it, and the amended job's exact
// certificate re-verifying against the edited problem.
func TestAmendCertifiedE2E(t *testing.T) {
	s := New(Config{Workers: 2})
	defer closeBounded(t, s)
	ctx := context.Background()

	req := fastRequest()
	req.Options.Certify = true
	base, err := s.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if base.Status != StatusDone {
		t.Fatalf("base: %s (%s)", base.Status, base.Error)
	}

	id, err := s.Amend(base.ID, &AmendRequest{Device: &DeviceSpec{CapacityFG: 200}})
	if err != nil {
		t.Fatal(err)
	}
	info := waitFinished(t, s, id, 60*time.Second)
	if info.Status != StatusDone {
		t.Fatalf("amend: %s (%s)", info.Status, info.Error)
	}
	if info.Amend.Path == "reuse" {
		t.Fatal("certified amend took the reuse path; certification demands a re-certified search")
	}
	cert, err := s.Certificate(id)
	if err != nil || cert == nil {
		t.Fatalf("certificate: %v (nil=%v)", err, cert == nil)
	}
	if !cert.Valid {
		t.Fatalf("amended certificate invalid: %+v", cert.Checks)
	}
}

// TestV1AmendHTTP exercises POST /v1/jobs/{id}/amend end to end: 202
// with lineage on success, the typed 404/409 envelopes on bad bases.
func TestV1AmendHTTP(t *testing.T) {
	s := New(Config{Workers: 2})
	defer closeBounded(t, s)
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	var base JobInfo
	postV1(t, ts.URL+"/v1/jobs", fastRequest(), http.StatusAccepted, &base)
	waitFinished(t, s, base.ID, 30*time.Second)

	post := func(url, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	checkErr := func(resp *http.Response, wantStatus int, wantCode string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d, want %d: %s", resp.StatusCode, wantStatus, b)
		}
		var e errorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		if e.Error.Code != wantCode || e.Error.Message == "" {
			t.Fatalf("envelope %+v, want code %q", e.Error, wantCode)
		}
	}

	checkErr(post(ts.URL+"/v1/jobs/nope/amend", `{}`), http.StatusNotFound, "not_found")

	// a running base 409s
	var heavy JobInfo
	postV1(t, ts.URL+"/v1/jobs", heavyRequest(1), http.StatusAccepted, &heavy)
	checkErr(post(ts.URL+"/v1/jobs/"+heavy.ID+"/amend", `{}`), http.StatusConflict, "job_running")
	s.Cancel(heavy.ID)

	resp := post(ts.URL+"/v1/jobs/"+base.ID+"/amend", `{"device":{"capacity_fg":200}}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("amend: status %d: %s", resp.StatusCode, b)
	}
	var amended JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&amended); err != nil {
		t.Fatal(err)
	}
	if amended.Amend == nil || amended.Amend.Of != base.ID {
		t.Fatalf("amended job info %+v lacks lineage", amended)
	}
	info := waitFinished(t, s, amended.ID, 30*time.Second)
	if info.Status != StatusDone {
		t.Fatalf("amended job: %s (%s)", info.Status, info.Error)
	}
}

// TestV1SSEResumeAcrossAmend is the regression test for monotone event
// ids across amend generations: a client that drained the base job's
// stream resumes on the amended job with Last-Event-ID and sees only
// new events, with strictly increasing ids continuing the base's.
func TestV1SSEResumeAcrossAmend(t *testing.T) {
	s := New(Config{Workers: 2})
	defer closeBounded(t, s)
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	var base JobInfo
	postV1(t, ts.URL+"/v1/jobs", fastRequest(), http.StatusAccepted, &base)
	waitFinished(t, s, base.ID, 30*time.Second)

	stream := func(id string, lastEventID uint64) (ids []uint64) {
		t.Helper()
		req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastEventID > 0 {
			req.Header.Set("Last-Event-ID", strconv.FormatUint(lastEventID, 10))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "id: ") {
				v, perr := strconv.ParseUint(line[len("id: "):], 10, 64)
				if perr != nil {
					t.Fatalf("bad id line %q: %v", line, perr)
				}
				ids = append(ids, v)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return ids
	}

	baseIDs := stream(base.ID, 0)
	if len(baseIDs) == 0 {
		t.Fatal("base stream carried no events")
	}
	lastBase := baseIDs[len(baseIDs)-1]

	var amendBody bytes.Buffer
	amendBody.WriteString(`{"device":{"capacity_fg":200}}`)
	resp, err := http.Post(ts.URL+"/v1/jobs/"+base.ID+"/amend", "application/json", &amendBody)
	if err != nil {
		t.Fatal(err)
	}
	var amended JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&amended); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFinished(t, s, amended.ID, 30*time.Second)

	amendIDs := stream(amended.ID, lastBase)
	if len(amendIDs) == 0 {
		t.Fatal("amend stream carried no events")
	}
	prev := lastBase
	for _, v := range amendIDs {
		if v <= prev {
			t.Fatalf("event id %d not past cursor %d: ids regressed across the amend boundary (%v)", v, prev, amendIDs)
		}
		prev = v
	}

	// a fully-caught-up resume replays nothing and just sees the stream
	// end (the amended job is terminal, so its ring is closed)
	if tail := stream(amended.ID, prev); len(tail) != 0 {
		t.Fatalf("resume at the tip replayed %v", tail)
	}
}

// TestSweep drives the design-space sweep: an α scan whose points
// chain through the delta engine. Later points must leave the cold
// path, and every point's verdict must match a cold core solve (the
// service would answer the same points from its result cache).
func TestSweep(t *testing.T) {
	s := New(Config{Workers: 2})
	defer closeBounded(t, s)
	ctx := context.Background()

	sreq := &SweepRequest{Request: *fastRequest()}
	sreq.Sweep.Alpha = []float64{0.7, 0.8, 0.9}
	res, err := s.Sweep(ctx, sreq)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("%d points, want 3", len(res.Points))
	}
	if res.Warm+res.Reuse == 0 {
		t.Fatalf("sweep never left the cold path: %+v", res)
	}
	for i, pt := range res.Points {
		if !pt.Optimal {
			t.Fatalf("point %d not optimal: %+v", i, pt)
		}
		req := fastRequest()
		req.Device.Alpha = pt.Alpha
		ci, err := req.compile(time.Minute, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.SolveInstance(ci.inst, ci.opt)
		if err != nil {
			t.Fatal(err)
		}
		wantComm := 0
		if want.Solution != nil {
			wantComm = want.Solution.Comm
		}
		if pt.Feasible != want.Feasible || pt.Comm != wantComm {
			t.Fatalf("point %d (alpha %g): sweep %+v, cold feasible=%v comm=%d", i, pt.Alpha, pt, want.Feasible, wantComm)
		}
	}

	if st := s.Stats(); st.Sweeps != 1 || st.SweepPoints != 3 {
		t.Fatalf("stats sweeps=%d points=%d, want 1/3", st.Sweeps, st.SweepPoints)
	}

	// the same grid again: every point is an exact hit
	again, err := s.Sweep(ctx, sreq)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range again.Points {
		if pt.Path != "cache" || pt.Comm != res.Points[i].Comm {
			t.Fatalf("repeat point %d: %+v, first %+v", i, pt, res.Points[i])
		}
	}

	// grid-size limit: Config.MaxBatch points
	big := &SweepRequest{Request: *fastRequest()}
	big.Sweep.CapacityFG = make([]int, 30)
	for i := range big.Sweep.CapacityFG {
		big.Sweep.CapacityFG[i] = 160 + i
	}
	big.Sweep.ScratchMem = []int{8, 16, 32, 64}
	big.Sweep.Alpha = []float64{0.5, 0.6, 0.7}
	if _, err := s.Sweep(ctx, big); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized grid: %v, want ErrBatchTooLarge", err)
	}
}

// TestSweepCancelMidGrid cancels a sweep while its first points are
// still solving: every job of its batch must end terminal, and the
// queue, deferred and running gauges must drain back to zero.
func TestSweepCancelMidGrid(t *testing.T) {
	s := New(Config{Workers: 2, InjectFault: func(op *core.Options) { op.NodeDelay = 5 * time.Millisecond }})
	defer closeBounded(t, s)

	// two structural cells of three α points: two chain heads running,
	// four successors deferred behind them
	sreq := &SweepRequest{Request: *heavyRequest(910)}
	sreq.Sweep.N = []int{4, 5}
	sreq.Sweep.Alpha = []float64{0.8, 0.9, 1.0}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for end := time.Now().Add(10 * time.Second); s.Stats().Running < 2 && time.Now().Before(end); {
			time.Sleep(2 * time.Millisecond)
		}
		cancel()
	}()
	if _, err := s.Sweep(ctx, sreq); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v", err)
	}

	s.mu.Lock()
	batchID := s.batchOrder[0]
	s.mu.Unlock()
	bi, err := s.Batch(batchID)
	if err != nil {
		t.Fatal(err)
	}
	if !bi.Done || len(bi.Jobs) != 6 {
		t.Fatalf("batch after cancel: done=%v jobs=%d", bi.Done, len(bi.Jobs))
	}
	for _, j := range bi.Jobs {
		if j.Status != StatusCancelled {
			t.Fatalf("job %s ended %s, want cancelled", j.ID, j.Status)
		}
	}
	for end := time.Now().Add(10 * time.Second); ; {
		st := s.Stats()
		if st.Queued == 0 && st.Deferred == 0 && st.Running == 0 {
			if st.Sweeps != 0 || st.Cancelled != 6 {
				t.Fatalf("stats sweeps=%d cancelled=%d, want 0/6", st.Sweeps, st.Cancelled)
			}
			break
		}
		if time.Now().After(end) {
			t.Fatalf("gauges never drained: queued=%d deferred=%d running=%d", st.Queued, st.Deferred, st.Running)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestV1SweepHTTP checks the POST /v1/sweep wire surface.
func TestV1SweepHTTP(t *testing.T) {
	s := New(Config{Workers: 2})
	defer closeBounded(t, s)
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	body, err := json.Marshal(&SweepRequest{Request: *fastRequest(),
		Sweep: SweepAxes{Alpha: []float64{0.7, 0.9}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, b)
	}
	var res SweepResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || !res.Points[0].Optimal || !res.Points[1].Optimal {
		t.Fatalf("sweep result %+v", res)
	}

	// a grid beyond Config.MaxBatch is a 400 before anything runs
	big, err := json.Marshal(&SweepRequest{Request: *fastRequest(),
		Sweep: SweepAxes{CapacityFG: make([]int, 65)}})
	if err != nil {
		t.Fatal(err)
	}
	resp3, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized sweep: status %d", resp3.StatusCode)
	}

	resp2, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader("{bad"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad sweep body: status %d", resp2.StatusCode)
	}
}
