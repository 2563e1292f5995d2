package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"uopsim/internal/experiments"
	"uopsim/internal/runcache"
)

// newTestServer builds a server with tiny-run-friendly caps and hands back
// the httptest wrapper.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Drain() })
	return s, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// TestValidationErrors tables the 4xx contract of both POST endpoints.
func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxInsts: 50_000})
	cases := []struct {
		name, path, body string
		wantCode         int
		wantSubstr       string
	}{
		{"malformed json", "/v1/simulate", `{"workload":`, 400, "bad request body"},
		{"unknown field", "/v1/simulate", `{"workload":"bm_cc","bogus":1}`, 400, "bogus"},
		{"missing workload", "/v1/simulate", `{}`, 400, "needs a workload"},
		{"unknown workload", "/v1/simulate", `{"workload":"nope"}`, 400, "unknown profile"},
		{"unknown scheme", "/v1/simulate", `{"workload":"bm_cc","scheme":"warp"}`, 400, "unknown scheme"},
		{"negative capacity", "/v1/simulate", `{"workload":"bm_cc","capacity":-4}`, 400, "capacity"},
		{"insts over cap", "/v1/simulate", `{"workload":"bm_cc","warmup":40000,"measure":20000}`, 400, "per-point cap"},
		{"empty sweep", "/v1/sweep", `{"points":[]}`, 400, "at least one point"},
		{"sweep bad point", "/v1/sweep", `{"points":[{"workload":"bm_cc","warmup":100,"measure":200},{"workload":"nope","warmup":100,"measure":200}]}`, 400, "points[1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+tc.path, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantCode)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("error body: %v", err)
			}
			if !strings.Contains(eb.Error, tc.wantSubstr) {
				t.Fatalf("error %q does not mention %q", eb.Error, tc.wantSubstr)
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/simulate")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/simulate = %d, want 405", resp.StatusCode)
		}
	})
}

// TestBodyTooLarge sends an over-limit /v1/simulate body and expects the
// explicit too-large message, not a truncation-shaped decode error.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := fmt.Sprintf(`{"workload":"bm_cc","note":%q}`, strings.Repeat("x", simulateBodyLimit+1))
	resp := postJSON(t, ts.URL+"/v1/simulate", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("error body: %v", err)
	}
	if !strings.Contains(eb.Error, "request body too large") {
		t.Fatalf("error %q does not name the body limit", eb.Error)
	}
}

// TestStatusErrorRetryAfterForms covers both Retry-After forms RFC 9110
// allows: delta-seconds and HTTP-date.
func TestStatusErrorRetryAfterForms(t *testing.T) {
	mk := func(ra string) *http.Response {
		rec := httptest.NewRecorder()
		rec.Header().Set("Retry-After", ra)
		rec.WriteHeader(http.StatusTooManyRequests)
		return rec.Result()
	}
	if se := statusError(mk("3")); se.RetryAfter != 3*time.Second {
		t.Fatalf("delta-seconds RetryAfter = %v, want 3s", se.RetryAfter)
	}
	at := time.Now().Add(30 * time.Second).UTC()
	se := statusError(mk(at.Format(http.TimeFormat)))
	if se.RetryAfter <= 0 || se.RetryAfter > 30*time.Second {
		t.Fatalf("HTTP-date RetryAfter = %v, want in (0s, 30s]", se.RetryAfter)
	}
	if se := statusError(mk(time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat))); se.RetryAfter != 0 {
		t.Fatalf("past HTTP-date RetryAfter = %v, want 0", se.RetryAfter)
	}
}

// TestBackpressure429 saturates a 1-worker/1-slot server through a stubbed
// resolver and checks the full 429 contract: Retry-After present and
// parseable, and a retry after capacity frees succeeds.
func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s.resolve = func(experiments.PreparedPoint) (experiments.PointResult, runcache.Resolution, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return experiments.PointResult{}, runcache.ResolvedCompute, nil
	}
	client := NewClient(ts.URL)
	req := SimulateRequest{PointRequest: experiments.PointRequest{Workload: "bm_cc"}}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.Simulate(req)
		}(i)
	}
	<-started // worker busy; second request occupies the queue slot
	waitSaturated(t, s)
	var se *StatusError
	if _, err := client.Simulate(req); !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("probe against a full queue = %v, want 429", err)
	}
	if se.RetryAfter <= 0 || se.RetryAfter > time.Minute {
		t.Fatalf("Retry-After hint %v outside (0, 60s]", se.RetryAfter)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("in-flight request %d failed: %v", i, err)
		}
	}
	// Capacity is free again: the retry the 429 asked for now succeeds.
	if _, err := client.Simulate(req); err != nil {
		t.Fatalf("retry after 429 should succeed: %v", err)
	}
	st := s.statsResponse()
	if st.Pool.Rejected == 0 {
		t.Fatal("stats never counted a rejection")
	}
}

// waitSaturated waits until one task runs and one holds the only queue
// slot. A probe sent earlier could take the slot itself and block on the
// stub's release, which only closes after the probe returns.
func waitSaturated(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		pool := s.statsResponse().Pool
		if pool.Inflight == 1 && pool.QueueDepth == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never reached 1 in flight + 1 queued: %+v", pool)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSweepNDJSON drives /v1/sweep through a stub that fails one point and
// staggers completion order, checking content type, index integrity, the
// per-line error contract, and that every point is answered exactly once.
func TestSweepNDJSON(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 8})
	s.resolve = func(pp experiments.PreparedPoint) (experiments.PointResult, runcache.Resolution, error) {
		if pp.Request.Workload == "redis" {
			return experiments.PointResult{}, runcache.ResolvedCompute, fmt.Errorf("injected failure")
		}
		return experiments.PointResult{Suite: "test"}, runcache.ResolvedMemo, nil
	}
	body := `{"points":[
		{"workload":"bm_cc"},
		{"workload":"redis"},
		{"workload":"jvm","capacity":1024},
		{"workload":"bm_cc","scheme":"clasp"}
	]}`
	resp := postJSON(t, ts.URL+"/v1/sweep", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	seen := map[int]SweepLine{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line SweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if _, dup := seen[line.Index]; dup {
			t.Fatalf("index %d answered twice", line.Index)
		}
		seen[line.Index] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("answered %d of 4 points", len(seen))
	}
	for i := 0; i < 4; i++ {
		line, ok := seen[i]
		if !ok {
			t.Fatalf("index %d never answered", i)
		}
		if i == 1 {
			if !strings.Contains(line.Error, "injected failure") || line.Result != nil {
				t.Fatalf("index 1: want injected failure and nil result, got %+v", line)
			}
			continue
		}
		if line.Error != "" || line.Result == nil || line.Result.Suite != "test" {
			t.Fatalf("index %d: unexpected line %+v", i, line)
		}
		if line.Resolution != "memo" {
			t.Fatalf("index %d: resolution %q, want memo", i, line.Resolution)
		}
	}
}

// TestGracefulDrain checks shutdown semantics end to end: an in-flight
// request completes, /healthz flips to 503, and new work is refused.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s.resolve = func(experiments.PreparedPoint) (experiments.PointResult, runcache.Resolution, error) {
		once.Do(func() { close(started) })
		<-release
		return experiments.PointResult{Suite: "drained"}, runcache.ResolvedCompute, nil
	}
	client := NewClient(ts.URL)
	if err := client.Healthz(); err != nil {
		t.Fatalf("healthz before drain: %v", err)
	}
	inflight := make(chan error, 1)
	go func() {
		resp, err := client.Simulate(SimulateRequest{PointRequest: experiments.PointRequest{Workload: "bm_cc"}})
		if err == nil && resp.Result.Suite != "drained" {
			err = fmt.Errorf("unexpected result %+v", resp)
		}
		inflight <- err
	}()
	<-started

	drained := make(chan struct{})
	go func() { defer close(drained); s.Drain() }()
	// Drain blocks on the in-flight request; healthz must already be 503.
	deadline := time.Now().Add(2 * time.Second)
	for !s.pool.isDraining() {
		if time.Now().After(deadline) {
			t.Fatal("pool never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if err := client.Healthz(); err == nil {
		t.Fatal("healthz should fail while draining")
	} else if se := new(StatusError); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: want 503, got %v", err)
	}
	if _, err := client.Simulate(SimulateRequest{PointRequest: experiments.PointRequest{Workload: "jvm"}}); err == nil {
		t.Fatal("new request during drain should fail")
	} else if se := new(StatusError); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("simulate during drain: want 503, got %v", err)
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while a request was in flight")
	default:
	}
	close(release)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request should complete through drain: %v", err)
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after in-flight work completed")
	}
}

// TestConcurrentIdenticalSimulatesOnce fires N identical requests at a
// real engine-backed server concurrently and asserts the engine ran
// exactly one simulation — the core dedupe promise of the daemon.
func TestConcurrentIdenticalSimulatesOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	client := NewClient(ts.URL)
	req := SimulateRequest{PointRequest: experiments.PointRequest{
		Workload: "bm_cc", Warmup: 1_000, Measure: 3_000,
	}}
	const n = 16
	var wg sync.WaitGroup
	resolutions := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Simulate(req)
			if err == nil {
				resolutions[i] = resp.Resolution
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := s.Engine().Stats()
	if st.Simulated != 1 {
		t.Fatalf("engine simulated %d times for %d identical requests, want exactly 1", st.Simulated, n)
	}
	if st.Submitted != n {
		t.Fatalf("engine saw %d submissions, want %d", st.Submitted, n)
	}
	var computed int
	for _, r := range resolutions {
		if r == "simulated" {
			computed++
		}
	}
	if computed != 1 {
		t.Fatalf("%d responses claimed resolution=simulated, want exactly 1 (rest memo)", computed)
	}
}

// TestSweepDedupe50x10 is the acceptance scenario: a 2-worker server, 50
// requests spanning exactly 10 unique design points, and the engine must
// simulate exactly 10 times while /v1/stats reports the dedupe.
func TestSweepDedupe50x10(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 64})
	client := NewClient(ts.URL)

	// 10 unique points: 5 schemes × 1 workload × 2 capacities.
	var unique []experiments.PointRequest
	for _, capacity := range []int{1024, 2048} {
		for _, sc := range experiments.Schemes(2) {
			unique = append(unique, experiments.PointRequest{
				Workload: "bm_cc", Scheme: sc.Name, Capacity: capacity,
				Warmup: 1_000, Measure: 2_000,
			})
		}
	}
	if len(unique) != 10 {
		t.Fatalf("expected 10 unique points, built %d", len(unique))
	}
	points := make([]experiments.PointRequest, 50)
	for i := range points {
		points[i] = unique[i%10]
	}

	report := LoadReport{Resolutions: map[string]int{}}
	seen := make([]bool, len(points))
	err := client.Sweep(SweepRequest{Points: points}, func(line SweepLine) error {
		if line.Index < 0 || line.Index >= len(seen) || seen[line.Index] {
			return fmt.Errorf("bad or duplicate index %d", line.Index)
		}
		seen[line.Index] = true
		if line.Error != "" {
			return fmt.Errorf("points[%d]: %s", line.Index, line.Error)
		}
		report.OK++
		report.Resolutions[line.Resolution]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.OK != 50 {
		t.Fatalf("answered %d of 50", report.OK)
	}

	st := s.Engine().Stats()
	if st.Simulated != 10 {
		t.Fatalf("engine simulated %d times for 50 requests over 10 unique points, want exactly 10", st.Simulated)
	}
	if st.Unique != 10 {
		t.Fatalf("engine saw %d unique fingerprints, want 10", st.Unique)
	}
	if report.Resolutions["simulated"] != 10 || report.Resolutions["memo"] != 40 {
		t.Fatalf("resolution mix %v, want simulated=10 memo=40", report.Resolutions)
	}

	// /v1/stats must tell the same story over the wire.
	wire, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if wire.Engine.Simulated != 10 || wire.Engine.Submitted != 50 || wire.Engine.MemoHits != 40 {
		t.Fatalf("/v1/stats engine = %+v, want simulated=10 submitted=50 memo_hits=40", wire.Engine)
	}
	// A repeat that finds its point completed is answered before admission;
	// every other request takes a pool slot. Either way each is answered once.
	if wire.Pool.Admitted+wire.Pool.FastHits != 50 || wire.Pool.Completed != wire.Pool.Admitted {
		t.Fatalf("/v1/stats pool = %+v, want admitted+fast_hits=50 and completed=admitted", wire.Pool)
	}
	if wire.Simulations.Sampled+wire.Simulations.Full != wire.Pool.Completed {
		t.Fatalf("mode split %+v does not sum to completed=%d", wire.Simulations, wire.Pool.Completed)
	}
}

// TestMemoHitSkipsAdmission: a repeat of a completed point is answered
// from the memo before admission. It takes no pool slot, shows as a fast
// hit in /v1/stats and /metrics, and still reports resolution=memo.
func TestMemoHitSkipsAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	client := NewClient(ts.URL)
	req := SimulateRequest{PointRequest: experiments.PointRequest{Workload: "bm_ds", Warmup: 500, Measure: 1_000}}
	first, err := client.Simulate(req)
	if err != nil {
		t.Fatal(err)
	}
	before, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := client.Simulate(req)
		if err != nil {
			t.Fatal(err)
		}
		if again.Resolution != "memo" || again.Fingerprint != first.Fingerprint || again.Result.Metrics != first.Result.Metrics {
			t.Fatalf("repeat %d answered %s/%s, want the memo copy of %s", i, again.Resolution, again.Fingerprint, first.Fingerprint)
		}
	}
	after, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Pool.Admitted != before.Pool.Admitted {
		t.Fatalf("memo hits were admitted: %d -> %d", before.Pool.Admitted, after.Pool.Admitted)
	}
	if after.Pool.FastHits != before.Pool.FastHits+3 {
		t.Fatalf("fast hits %d -> %d, want +3", before.Pool.FastHits, after.Pool.FastHits)
	}
	if after.Engine.MemoHits != before.Engine.MemoHits+3 || after.Engine.Submitted != before.Engine.Submitted+3 {
		t.Fatalf("engine counters %+v -> %+v, want 3 more submissions and memo hits", before.Engine, after.Engine)
	}
	if after.Simulations.Sampled+after.Simulations.Full != after.Pool.Completed {
		t.Fatalf("mode split %+v does not sum to completed=%d", after.Simulations, after.Pool.Completed)
	}
	if st := s.Engine().Stats(); st.Simulated != 1 {
		t.Fatalf("engine simulated %d times, want 1", st.Simulated)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "uopsimd_server_fast_hits 3\n") {
		t.Fatalf("/metrics does not report 3 fast hits:\n%s", buf.String())
	}
}

// TestMemoHitNotRefusedWhenSaturated: with the only worker busy and the
// only queue slot taken, a new point gets 429 but a completed one is still
// answered.
func TestMemoHitNotRefusedWhenSaturated(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	client := NewClient(ts.URL)
	warm := SimulateRequest{PointRequest: experiments.PointRequest{Workload: "redis", Warmup: 500, Measure: 1_000}}
	if _, err := client.Simulate(warm); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s.resolve = func(experiments.PreparedPoint) (experiments.PointResult, runcache.Resolution, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return experiments.PointResult{}, runcache.ResolvedCompute, nil
	}
	var wg sync.WaitGroup
	for _, wl := range []string{"bm_cc", "jvm"} {
		wg.Add(1)
		go func(wl string) {
			defer wg.Done()
			client.Simulate(SimulateRequest{PointRequest: experiments.PointRequest{Workload: wl}})
		}(wl)
	}
	<-started
	waitSaturated(t, s)
	var se *StatusError
	if _, err := client.Simulate(SimulateRequest{PointRequest: experiments.PointRequest{Workload: "nutch"}}); !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("new point against a full queue = %v, want 429", err)
	}
	if resp, err := client.Simulate(warm); err != nil || resp.Resolution != "memo" {
		t.Fatalf("completed point against a full queue = %v, %v, want a memo answer", resp, err)
	}
	close(release)
	wg.Wait()
}

// TestMemoHitAllocs bounds the allocations of one memo-hit /v1/simulate
// through the handler. One fingerprint costs about a hundred allocations,
// so computing it twice per request again fails this bound.
func TestMemoHitAllocs(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(s.Drain)
	body := `{"workload":"bm_ds","warmup":500,"measure":1000}`
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)))
		return rec
	}
	if rec := serve(); rec.Code != http.StatusOK {
		t.Fatalf("first simulate = %d: %s", rec.Code, rec.Body)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if rec := serve(); rec.Code != http.StatusOK {
			t.Fatalf("memo-hit simulate = %d", rec.Code)
		}
	})
	t.Logf("memo-hit /v1/simulate: %.0f allocs", allocs)
	if allocs > memoHitAllocBound {
		t.Fatalf("memo-hit /v1/simulate allocates %.0f times, bound %d", allocs, memoHitAllocBound)
	}
	if got := s.statsResponse().Pool.Admitted; got != 1 {
		t.Fatalf("admitted = %d after one simulation and memo hits, want 1", got)
	}
}

// memoHitAllocBound is twice the measured memo-hit cost: 34 allocations,
// about 46 under -race, where sync.Pool drops some of what it is given.
const memoHitAllocBound = 68

// TestMetricsEndpoint spot-checks the Prometheus exposition: server scope,
// runcache scope, and parseable sample lines.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	client := NewClient(ts.URL)
	if _, err := client.Simulate(SimulateRequest{PointRequest: experiments.PointRequest{
		Workload: "jvm", Warmup: 500, Measure: 1_000,
	}}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"uopsimd_server_admitted",
		"uopsimd_server_completed",
		"uopsimd_server_workers",
		"uopsimd_runcache_simulated",
		"uopsimd_runcache_dedupe_factor",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "uopsimd_server_completed ") {
			v, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil || v < 1 {
				t.Fatalf("completed sample %q should be >= 1", line)
			}
		}
	}
}

// TestSampledSimulateEndToEnd drives a sampled point through the real
// engine: the response is labeled mode=sampled, the sampled and full forms
// of one point get distinct fingerprints (two simulations), /v1/stats
// reports the mode split, and /metrics exposes the labeled total.
func TestSampledSimulateEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxInsts: 500_000})
	client := NewClient(ts.URL)
	pt := experiments.PointRequest{Workload: "bm_cc", Warmup: 5_000, Measure: 60_000}
	full, err := client.Simulate(SimulateRequest{PointRequest: pt})
	if err != nil {
		t.Fatal(err)
	}
	if full.Mode != "full" {
		t.Fatalf("mode = %q, want full", full.Mode)
	}
	pt.Sampling = &SamplingRequest{Intervals: 3, IntervalInsts: 4_000, WarmupInsts: 1_000}
	sampled, err := client.Simulate(SimulateRequest{PointRequest: pt})
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Mode != "sampled" {
		t.Fatalf("mode = %q, want sampled", sampled.Mode)
	}
	if sampled.Fingerprint == full.Fingerprint {
		t.Fatal("sampled and full requests share a fingerprint")
	}
	if sampled.Result.Metrics == full.Result.Metrics {
		t.Fatal("sampled metrics bit-identical to full run — sampling did not engage")
	}
	if st := s.Engine().Stats(); st.Simulated != 2 || st.Unique != 2 {
		t.Fatalf("engine stats %+v, want 2 unique simulations", st)
	}

	wire, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if wire.Simulations.Sampled != 1 || wire.Simulations.Full != 1 {
		t.Fatalf("/v1/stats simulations = %+v, want sampled=1 full=1", wire.Simulations)
	}
	if wire.Simulations.Sampled+wire.Simulations.Full != wire.Pool.Completed {
		t.Fatalf("mode split %+v does not sum to completed=%d", wire.Simulations, wire.Pool.Completed)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`uopsimd_simulations_total{mode="sampled"} 1`,
		`uopsimd_simulations_total{mode="full"} 1`,
		"uopsimd_server_simulations_sampled 1",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, buf.String())
		}
	}

	// A sampled sweep line carries the mode too.
	var modes []string
	err = client.Sweep(SweepRequest{Points: []experiments.PointRequest{pt}}, func(line SweepLine) error {
		if line.Error != "" {
			return fmt.Errorf("sweep line error: %s", line.Error)
		}
		modes = append(modes, line.Mode)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) != 1 || modes[0] != "sampled" {
		t.Fatalf("sweep modes = %v, want [sampled]", modes)
	}
}

// TestSampledRequestValidation: malformed sampling configurations are a
// 400, not a worker-side failure.
func TestSampledRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxInsts: 500_000})
	body := `{"workload":"bm_cc","measure":10000,"sampling":{"intervals":4,"interval_insts":9000}}`
	resp := postJSON(t, ts.URL+"/v1/simulate", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eb.Error, "stride") {
		t.Fatalf("error %q does not explain the stride violation", eb.Error)
	}
}

// TestWriteJSONMatchesMarshalIndent: the pooled encoder writes exactly what
// json.MarshalIndent gives plus a newline, from many goroutines at once.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	values := []any{
		errorBody{Error: "bad <input> & more"},
		map[string]float64{"upc": 3.25, "ipc": 1e-9, "oc_hit_rate": 0.5},
		&SimulateResponse{Workload: "bm_cc", Scheme: "F-PWAC", Capacity: 2048, Fingerprint: "ab12", Resolution: "memo", Mode: "full", ElapsedMS: 0.125},
		[]int{},
		HealthzInfo{Status: "ok", Node: "n1", Points: 7, Warehouse: true},
		strings.Repeat("x", maxPooledJSON), // larger than a pooled buffer may stay
	}
	want := make([][]byte, len(values))
	for i, v := range values {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append(b, '\n')
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 2*len(values); rep++ {
				i := (g + rep) % len(values)
				rec := httptest.NewRecorder()
				WriteJSON(rec, http.StatusAccepted, values[i])
				if rec.Code != http.StatusAccepted || rec.Header().Get("Content-Type") != "application/json" {
					t.Errorf("value %d: status %d, content type %q", i, rec.Code, rec.Header().Get("Content-Type"))
					return
				}
				if !bytes.Equal(rec.Body.Bytes(), want[i]) {
					t.Errorf("value %d: WriteJSON wrote %q, want %q", i, rec.Body.Bytes(), want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
