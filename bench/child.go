package main

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"uopsim"
	"uopsim/internal/experiments"
	"uopsim/internal/pipeline"
	"uopsim/internal/server"
)

// config is one invocation's settings, shared by the parent and its
// children.
type config struct {
	root    string
	seed    int64
	seconds float64
	warmup  float64
	// trace turns on span recording and per-layer metrics; spansFile, when
	// set, also keeps the spans for writing out.
	trace     bool
	spansFile string
	// profiles narrows the workload profiles (tests); nil means all 13.
	profiles []string
	// setups is how many fresh set-ups an untraced workload times; setup_s
	// is their median. Zero means defaultSetups.
	setups int
}

// defaultSetups set-ups per untraced workload: setup_s is their median.
const defaultSetups = 5

func (c config) profileSet() []string {
	if c.profiles != nil {
		return c.profiles
	}
	return allProfiles()
}

// childResult is what one child process reports to the parent.
type childResult struct {
	SetupS float64 `json:"setup_s"`
	// Attempted counts requests sent, warm-up included; Failed those that
	// failed in transport, answered non-200, or failed a check.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Timed is the untraced timed window's end-to-end metrics, all but
	// setup_s, which the parent takes over several children.
	Timed map[string]metric `json:"timed,omitempty"`
	// Layers and Spans are filled on traced runs only.
	Layers layerValues `json:"layers,omitempty"`
	Spans  []span      `json:"spans,omitempty"`
}

// layerValues are a traced run's per-layer metrics; the parent adds units.
type layerValues map[string]metric

func (l layerValues) set(name string, v float64, n int) { l[name] = metric{Value: v, N: n} }

// pct sets name to the p-th percentile of xs.
func (l layerValues) pct(name string, xs []float64, p float64) {
	l.set(name, percentile(xs, p), len(xs))
}

// maxFailures bounds the failure messages a child reports.
const maxFailures = 5

// runner drives one workload against a booted stack.
type runner struct {
	cfg     config
	w       mix
	st      *stack
	rec     *recorder
	clients []*server.Client
	// per client: the owned points, the next index into them, what each
	// answered (cold workloads), the first few full cold results, and the
	// first estimate answer per point.
	slices [][]*point
	cursor []int
	served [][]servedPoint
	kept   [][]experiments.PointResult
	seen   []map[string]map[string]float64
}

// servedPoint is one cold answer kept for the off-clock re-simulation.
type servedPoint struct {
	p *point
	m pipeline.Metrics
}

// runChild is one workload in this process: set-up, warm-up, the timed
// window, the checks and, on a traced run, the per-layer measurements.
func runChild(cfg config, w mix, setupOnly bool) (*childResult, error) {
	start := time.Now()
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	st, err := bootStack(cfg.profileSet(), rec)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	res := &childResult{SetupS: time.Since(start).Seconds()}
	if err := st.checkGolden(cfg.root); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if setupOnly {
		return res, nil
	}

	pts, err := withFingerprints(w.points(cfg.profileSet()))
	if err != nil {
		return nil, err
	}
	for i := range pts {
		if r, ok := st.prefill[pts[i].fp]; ok {
			m := r.Metrics
			pts[i].want = &m
		}
	}
	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	r := &runner{cfg: cfg, w: w, st: st, rec: rec, slices: slices(pts, cfg.seed)}
	for c := 0; c < clients; c++ {
		r.clients = append(r.clients, &server.Client{BaseURL: st.gwURL, HTTP: &http.Client{Transport: tr}})
		r.seen = append(r.seen, map[string]map[string]float64{})
	}
	r.cursor = make([]int, clients)
	r.served = make([][]servedPoint, clients)
	r.kept = make([][]experiments.PointResult, clients)

	// Warm-up: the same traffic, untimed; warm and estimate runs also make
	// one full pass so every point has been answered once before timing.
	warm, err := r.drive(secondsFrom(cfg.warmup), !w.cold, true)
	res.add(warm)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for c := range r.served {
		r.served[c] = r.served[c][:0]
	}
	runtime.GC()

	var before, after counters
	if cfg.trace {
		if before, err = st.counters(); err != nil {
			return nil, err
		}
	}
	window := secondsFrom(cfg.seconds)
	var timed []phase
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if cfg.trace {
		// Half the window with span recording off, half with it on: the
		// difference in median latency is the tracing overhead.
		off, err := r.drive(window/2, false, false)
		if err != nil {
			return nil, err
		}
		rec.on.Store(true)
		on, err := r.drive(window/2, false, false)
		rec.on.Store(false)
		if err != nil {
			return nil, err
		}
		timed = []phase{off, on}
	} else {
		p, err := r.drive(window, false, false)
		if err != nil {
			return nil, err
		}
		timed = []phase{p}
	}
	runtime.ReadMemStats(&ms1)
	n := 0
	for _, p := range timed {
		res.add(p)
		n += p.attempted
	}
	if n == 0 {
		return nil, errors.New("no request in the timed window")
	}
	if cfg.trace {
		if after, err = st.counters(); err != nil {
			return nil, err
		}
		res.Layers = layerValues{}
		counterLayers(res.Layers, before, after, n)
		off, on := timed[0], timed[1]
		offP50 := median(off.lat)
		res.Layers.set("client.latency_ms.p50", offP50/1e6, len(off.lat))
		res.Layers.set("client.throughput_rps", float64(len(off.lat))/off.elapsed.Seconds(), len(off.lat))
		res.Layers.set("trace.overhead_pct", 100*(median(on.lat)-offP50)/offP50, n)
	} else {
		// Allocation by the whole process, clients, gateway and shards, per
		// request sent: unlike the timings, it repeats from run to run.
		res.Timed = map[string]metric{
			"alloc_kib_per_req": {Value: float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(n), N: n},
			"allocs_per_req":    {Value: float64(ms1.Mallocs-ms0.Mallocs) / float64(n), N: n},
		}
	}
	if w.cold {
		for _, err := range r.resimulate() {
			res.fail(err)
		}
	}
	if !cfg.trace {
		// The live heap is the cluster's own: the per-request samples, which
		// grow with throughput, are summarized and dropped first.
		r.served = nil
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.Timed["heap_live_mb"] = metric{Value: float64(ms.HeapAlloc) / (1 << 20), N: 1}
	}
	if cfg.trace {
		spans := rec.take()
		if orphans := linkSpans(spans); orphans > 0 {
			res.fail(fmt.Errorf("%d spans below the client have no parent", orphans))
		}
		spanLayers(res.Layers, spans)
		if err := r.directLayers(res.Layers); err != nil {
			return nil, fmt.Errorf("direct layer timing: %w", err)
		}
		if cfg.spansFile != "" {
			res.Spans = spans
		}
	}
	return res, nil
}

func secondsFrom(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func (res *childResult) add(p phase) {
	res.Attempted += p.attempted
	res.Failed += p.failed
	for _, f := range p.failures {
		if len(res.Failures) < maxFailures {
			res.Failures = append(res.Failures, f)
		}
	}
}

// fail counts one failed check that no request attempt carried.
func (res *childResult) fail(err error) {
	if err == nil {
		return
	}
	res.Failed++
	if len(res.Failures) < maxFailures {
		res.Failures = append(res.Failures, err.Error())
	}
}

// issue sends one request from client c and checks its answer.
func (r *runner) issue(c int, p *point, warming bool) error {
	t0 := time.Now()
	if r.w.estimate {
		resp, err := r.clients[c].Estimate(server.EstimateRequest{PointRequest: p.req, MinConfidence: minConfidence})
		r.rec.add("client", p.key, t0, time.Now())
		if err != nil {
			return err
		}
		return r.checkEstimate(c, p, resp)
	}
	resp, err := r.clients[c].Simulate(server.SimulateRequest{PointRequest: p.req})
	r.rec.add("client", p.key, t0, time.Now())
	if err != nil {
		return err
	}
	if err := r.checkSimulate(p, resp, warming); err != nil {
		return err
	}
	if r.w.cold {
		r.served[c] = append(r.served[c], servedPoint{p: p, m: resp.Result.Metrics})
		if len(r.kept[c]) < directPoints/clients {
			r.kept[c] = append(r.kept[c], resp.Result)
		}
	}
	return nil
}

// minConfidence admits every surrogate prediction, so estimate_knn stays
// on the k-NN tier whatever the neighbours' spread.
const minConfidence = 1e-9

func (r *runner) checkSimulate(p *point, resp *server.SimulateResponse, warming bool) error {
	want := "memo"
	if r.w.cold {
		want = "simulated"
	}
	switch {
	case resp.Resolution != want && !(warming && resp.Resolution == "disk"):
		return fmt.Errorf("%s: resolution %q, want %q", p.key, resp.Resolution, want)
	case resp.Mode != p.req.Mode():
		return fmt.Errorf("%s: mode %q, want %q", p.key, resp.Mode, p.req.Mode())
	case resp.Fingerprint != p.fp:
		return fmt.Errorf("%s: fingerprint %s, computed locally %s", p.key, resp.Fingerprint, p.fp)
	case resp.Workload != p.req.Workload || resp.Scheme != p.req.Scheme || resp.Capacity != p.req.Capacity:
		return fmt.Errorf("%s: answer is for %s/%s/%d", p.key, resp.Workload, resp.Scheme, resp.Capacity)
	case p.want != nil && resp.Result.Metrics != *p.want:
		return fmt.Errorf("%s: metrics differ from the in-process result", p.key)
	case resp.Result.Metrics.Cycles <= 0 || resp.Result.Metrics.Insts == 0:
		return fmt.Errorf("%s: empty metrics", p.key)
	}
	return nil
}

func (r *runner) checkEstimate(c int, p *point, resp *server.EstimateResponse) error {
	switch {
	case resp.Source != "surrogate" || resp.Exact:
		return fmt.Errorf("%s: source %q exact=%t, want a k-NN surrogate answer", p.key, resp.Source, resp.Exact)
	case resp.Workload != p.req.Workload || resp.Scheme != p.req.Scheme || resp.Capacity != p.req.Capacity:
		return fmt.Errorf("%s: answer is for %s/%s/%d", p.key, resp.Workload, resp.Scheme, resp.Capacity)
	case !(resp.Confidence > 0 && resp.Confidence < 1) || resp.Neighbors < 1 || len(resp.Metrics) == 0:
		return fmt.Errorf("%s: confidence %g from %d neighbours over %d metrics", p.key, resp.Confidence, resp.Neighbors, len(resp.Metrics))
	}
	// Nothing is stored during the run, so the model, and every answer
	// for one point, must stay the same.
	if first, ok := r.seen[c][p.key]; !ok {
		r.seen[c][p.key] = resp.Metrics
	} else if !maps.Equal(first, resp.Metrics) {
		return fmt.Errorf("%s: estimate changed between requests", p.key)
	}
	return nil
}

// resimulatedPoints is how many cold answers per run are re-simulated in
// process after the timed window.
const resimulatedPoints = 2

// resimulate re-runs seeded cold answers through the public uopsim entry
// point and requires the served metrics bit for bit. It returns one error
// per point that failed.
func (r *runner) resimulate() []error {
	var all []servedPoint
	for _, s := range r.served {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return []error{errors.New("no cold answer to re-simulate")}
	}
	picks := rand.New(rand.NewSource(r.cfg.seed)).Perm(len(all))[:min(resimulatedPoints, len(all))]
	errs := make([]error, len(picks))
	var wg sync.WaitGroup
	for i, k := range picks {
		wg.Add(1)
		go func(i int, sp servedPoint) {
			defer wg.Done()
			req := sp.p.req
			cfg, err := req.BuildConfig()
			if err != nil {
				errs[i] = err
				return
			}
			m, err := uopsim.RunSampled(cfg, req.Workload, req.Warmup, req.Measure, samplingOf(req))
			switch {
			case err != nil:
				errs[i] = err
			case m != sp.m:
				errs[i] = fmt.Errorf("%s: served metrics differ from an in-process run", sp.p.key)
			}
		}(i, all[k])
	}
	wg.Wait()
	var failed []error
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	return failed
}

// samplingOf lifts a request's wire sampling knobs into the simulator's.
func samplingOf(req experiments.PointRequest) pipeline.Sampling {
	if req.Sampling == nil {
		return pipeline.Sampling{}
	}
	return pipeline.Sampling{
		Enabled:       true,
		Intervals:     req.Sampling.Intervals,
		IntervalInsts: req.Sampling.IntervalInsts,
		WarmupInsts:   req.Sampling.WarmupInsts,
	}
}
