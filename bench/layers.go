package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"uopsim/internal/cluster"
	"uopsim/internal/experiments"
	"uopsim/internal/pipeline"
	"uopsim/internal/runcache"
	"uopsim/internal/server"
	"uopsim/internal/surrogate"
	"uopsim/internal/warehouse"
	"uopsim/internal/workload"
)

// counters is the cluster's own ledger at one instant: the gateway's
// /v1/stats and every shard's, summed.
type counters struct {
	gw     cluster.GatewayCounters
	shards server.StatsResponse
}

func (st *stack) counters() (counters, error) {
	var c counters
	var gs cluster.StatsResponse
	if err := getJSON(st.gwURL+"/v1/stats", &gs); err != nil {
		return c, fmt.Errorf("gateway stats: %w", err)
	}
	c.gw = gs.Gateway
	c.shards.Estimate = &server.EstimateStats{}
	c.shards.Surrogate = &surrogate.Stats{}
	c.shards.Warehouse = &warehouse.Stats{}
	for _, sh := range st.shards {
		var s server.StatsResponse
		if err := getJSON(sh.url+"/v1/stats", &s); err != nil {
			return c, fmt.Errorf("shard stats: %w", err)
		}
		if s.Estimate == nil || s.Surrogate == nil || s.Warehouse == nil {
			return c, fmt.Errorf("shard %s reports no warehouse or surrogate", sh.url)
		}
		t := &c.shards
		t.Pool.Admitted += s.Pool.Admitted
		t.Pool.Rejected += s.Pool.Rejected
		t.Engine.Submitted += s.Engine.Submitted
		t.Engine.MemoHits += s.Engine.MemoHits
		t.Engine.DiskHits += s.Engine.DiskHits
		t.Engine.Simulated += s.Engine.Simulated
		t.Warehouse.Puts += s.Warehouse.Puts
		t.Surrogate.Inserts += s.Surrogate.Inserts
		t.Surrogate.Retrains += s.Surrogate.Retrains
		t.Surrogate.Predictions += s.Surrogate.Predictions
		t.Surrogate.Interpolated += s.Surrogate.Interpolated
		t.Estimate.Requests += s.Estimate.Requests
		t.Estimate.Served += s.Estimate.Served
	}
	return c, nil
}

// counterLayers turns the counter deltas over the timed window into
// per-request rates and ratios; n is the requests the clients sent.
func counterLayers(out layerValues, a, b counters, n int) {
	per := func(x, y uint64) float64 { return float64(y-x) / float64(n) }
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	sa, sb := a.shards, b.shards
	out.set("server.admitted_per_req", per(sa.Pool.Admitted, sb.Pool.Admitted), n)
	out.set("server.rejected_per_req", per(sa.Pool.Rejected, sb.Pool.Rejected), n)
	out.set("cluster.retries_per_req", per(a.gw.Retries, b.gw.Retries), n)
	out.set("cluster.errors_per_req", per(a.gw.Errors, b.gw.Errors), n)
	hits := (sb.Engine.MemoHits - sa.Engine.MemoHits) + (sb.Engine.DiskHits - sa.Engine.DiskHits)
	out.set("runcache.hit_ratio", ratio(hits, sb.Engine.Submitted-sa.Engine.Submitted), n)
	out.set("runcache.simulated_per_req", per(sa.Engine.Simulated, sb.Engine.Simulated), n)
	out.set("warehouse.puts_per_req", per(sa.Warehouse.Puts, sb.Warehouse.Puts), n)
	out.set("surrogate.inserts_per_req", per(sa.Surrogate.Inserts, sb.Surrogate.Inserts), n)
	out.set("surrogate.retrains_per_req", per(sa.Surrogate.Retrains, sb.Surrogate.Retrains), n)
	out.set("surrogate.served_ratio", ratio(sb.Estimate.Served-sa.Estimate.Served, sb.Estimate.Requests-sa.Estimate.Requests), n)
	out.set("surrogate.interpolated_ratio", ratio(sb.Surrogate.Interpolated-sa.Surrogate.Interpolated, sb.Surrogate.Predictions-sa.Surrogate.Predictions), n)
}

// directPoints is how many of the workload's own points the direct timings
// use, and directReps how often each is timed.
const (
	directPoints = 8
	directReps   = 50
)

// directLayers times each layer's public functions directly, off the
// clock, on this workload's own inputs.
func (r *runner) directLayers(out layerValues) error {
	own := r.ownPoints(directPoints)

	var fpUS, featUS []float64
	for rep := 0; rep < directReps; rep++ {
		for _, p := range own {
			t0 := time.Now()
			if _, err := p.req.Fingerprint(); err != nil {
				return err
			}
			fpUS = append(fpUS, usSince(t0))
			t0 = time.Now()
			if _, err := p.req.Features(); err != nil {
				return err
			}
			featUS = append(featUS, usSince(t0))
		}
	}
	out.pct("runcache.fingerprint_us.p50", fpUS, 50)
	out.pct("experiments.features_us.p50", featUS, 50)

	results := r.sampleResults(len(own))
	if err := memoResolve(out, own, results[0]); err != nil {
		return err
	}
	blobs, err := resultCodec(out, results)
	if err != nil {
		return err
	}
	if err := warehouseTimes(out, filepath.Join(r.st.dir, "scratch"), blobs, own[0]); err != nil {
		return err
	}
	if err := r.surrogateTimes(out); err != nil {
		return err
	}
	if err := r.pipelineTimes(out); err != nil {
		return err
	}
	out.set("workload.build_ms", r.st.buildMS, len(r.cfg.profileSet()))
	return nil
}

// ownPoints is a seeded pick of up to n of the workload's points.
func (r *runner) ownPoints(n int) []*point {
	var all []*point
	for _, s := range r.slices {
		all = append(all, s...)
	}
	rand.New(rand.NewSource(r.cfg.seed)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:min(n, len(all))]
}

// sampleResults is up to n PointResults the workload's answers carry: the
// in-process results of warm points, the served results of cold ones. An
// estimate answer carries none, so estimate_knn uses its neighbours, the
// warm set.
func (r *runner) sampleResults(n int) []experiments.PointResult {
	var out []experiments.PointResult
	for _, p := range r.ownPoints(n) {
		if res, ok := r.st.prefill[p.fp]; ok {
			out = append(out, res)
		}
	}
	for _, k := range r.kept {
		out = append(out, k...)
	}
	if len(out) == 0 {
		for _, p := range r.st.warm[:min(n, len(r.st.warm))] {
			out = append(out, r.st.prefill[p.fp])
		}
	}
	return out
}

// memoResolve times PointRequest.Resolve on a benchmark-owned engine whose
// memo already holds every point: the lookup path of a warm hit.
func memoResolve(out layerValues, own []*point, res experiments.PointResult) error {
	eng, err := experiments.NewEngine("", 0)
	if err != nil {
		return err
	}
	for _, p := range own {
		feat, err := p.req.Features()
		if err != nil {
			return err
		}
		if _, _, err := eng.DoFeatured(runcache.Fingerprint(p.fp), feat, func() (experiments.PointResult, error) { return res, nil }); err != nil {
			return err
		}
	}
	var us []float64
	for rep := 0; rep < directReps; rep++ {
		for _, p := range own {
			t0 := time.Now()
			_, how, err := p.req.Resolve(eng)
			us = append(us, usSince(t0))
			if err != nil {
				return err
			}
			if how != runcache.ResolvedMemo {
				return fmt.Errorf("%s resolved as %s on a warm engine", p.key, how)
			}
		}
	}
	out.pct("runcache.memo_resolve_us.p50", us, 50)
	return nil
}

// resultCodec times the JSON encoding every answer and every stored blob
// goes through, and returns the encoded blobs.
func resultCodec(out layerValues, results []experiments.PointResult) ([][]byte, error) {
	var marshalUS, unmarshalUS, sizes []float64
	var blobs [][]byte
	for rep := 0; rep < directReps; rep++ {
		for _, res := range results {
			t0 := time.Now()
			b, err := json.Marshal(res)
			marshalUS = append(marshalUS, usSince(t0))
			if err != nil {
				return nil, err
			}
			var back experiments.PointResult
			t0 = time.Now()
			err = json.Unmarshal(b, &back)
			unmarshalUS = append(unmarshalUS, usSince(t0))
			if err != nil {
				return nil, err
			}
			if rep == 0 {
				blobs = append(blobs, b)
				sizes = append(sizes, float64(len(b)))
			}
		}
	}
	out.pct("experiments.result_bytes", sizes, 50)
	out.pct("experiments.result_marshal_us.p50", marshalUS, 50)
	out.pct("experiments.result_unmarshal_us.p50", unmarshalUS, 50)
	return blobs, nil
}

// warehousePuts is how many records the scratch store takes; every Put
// fsyncs, so this is the slow direct timing.
const warehousePuts = 24

// warehouseTimes times Store.Put of fresh records and Store.Load of an
// absent fingerprint on a scratch store: the cold write and the miss every
// first request of a point pays.
func warehouseTimes(out layerValues, dir string, blobs [][]byte, p *point) error {
	ws, err := warehouse.Open(dir, warehouse.Options{})
	if err != nil {
		return err
	}
	defer ws.Close()
	feat, err := p.req.Features()
	if err != nil {
		return err
	}
	var putUS, missUS []float64
	for i := 0; i < warehousePuts; i++ {
		fp := runcache.Fingerprint(fmt.Sprintf("%s-%d", p.fp, i))
		t0 := time.Now()
		if err := ws.Put(fp, feat, blobs[i%len(blobs)]); err != nil {
			return err
		}
		putUS = append(putUS, usSince(t0))
	}
	for i := 0; i < directReps*directPoints; i++ {
		fp := runcache.Fingerprint(fmt.Sprintf("%s-absent-%d", p.fp, i))
		t0 := time.Now()
		if _, ok := ws.Load(fp); ok {
			return fmt.Errorf("scratch store holds %s", fp)
		}
		missUS = append(missUS, usSince(t0))
	}
	out.pct("warehouse.put_us.p50", putUS, 50)
	out.pct("warehouse.load_miss_us.p50", missUS, 50)
	return nil
}

// fitReps is how often each shard's surrogate fit is timed.
const fitReps = 3

// surrogateTimes fits a surrogate on each shard's warehouse, as a shard
// does at boot (their sum is the set-up's share), then times Predict on the
// estimate set against the model of each point's owner.
func (r *runner) surrogateTimes(out layerValues) error {
	models := map[string]*surrogate.Model{}
	fitMS := 0.0
	for _, sh := range r.st.shards {
		var ms []float64
		for rep := 0; rep < fitReps; rep++ {
			t0 := time.Now()
			m, _, err := experiments.NewStoreSurrogate(sh.ws, surrogate.Options{})
			ms = append(ms, msSince(t0))
			if err != nil {
				return err
			}
			models[sh.url] = m
		}
		fitMS += percentile(ms, 50)
	}
	out.set("surrogate.fit_ms", fitMS, len(r.st.shards)*fitReps)
	var us []float64
	for rep := 0; rep < fitReps; rep++ {
		for _, p := range r.st.est {
			feat, err := p.req.Features()
			if err != nil {
				return err
			}
			m := models[r.st.ring.Owner(p.fp)]
			t0 := time.Now()
			_, ok := m.Predict(feat)
			us = append(us, usSince(t0))
			if !ok {
				return fmt.Errorf("%s: no prediction", p.key)
			}
		}
	}
	out.pct("surrogate.predict_us.p50", us, 50)
	out.pct("surrogate.predict_us.p95", us, 95)
	return nil
}

// pipelinePoints is how many seeded cold points the simulator timings run,
// and pipelineReps how often New and StatsSnapshot are timed on each.
const (
	pipelinePoints = 2
	pipelineReps   = 10
	ffInsts        = 1_000_000
)

// pipelineTimes runs the simulator directly: Sim.Run over the measured
// region of seeded cold_full points, and Sim.FastForward on seeded
// cold_sampled points, plus the per-request fixed costs of building a
// simulator and snapshotting its registry.
func (r *runner) pipelineTimes(out layerValues) error {
	profiles := r.cfg.profileSet()
	var runNS, cycles, insts float64
	var newUS, snapUS []float64
	for _, req := range seededReqs(coldPool(profiles, false), r.cfg.seed, pipelinePoints) {
		cfg, err := req.BuildConfig()
		if err != nil {
			return err
		}
		wl, err := workload.Shared(req.Workload)
		if err != nil {
			return err
		}
		var sim *pipeline.Sim
		for rep := 0; rep < pipelineReps; rep++ {
			t0 := time.Now()
			sim, err = pipeline.New(cfg, wl)
			newUS = append(newUS, usSince(t0))
			if err != nil {
				return err
			}
		}
		if err := sim.Run(req.Warmup); err != nil {
			return err
		}
		c0 := sim.Cycle()
		t0 := time.Now()
		if err := sim.Run(req.Measure); err != nil {
			return err
		}
		runNS += float64(time.Since(t0))
		cycles += float64(sim.Cycle() - c0)
		insts += float64(req.Measure)
		for rep := 0; rep < pipelineReps; rep++ {
			t0 := time.Now()
			sim.StatsSnapshot()
			snapUS = append(snapUS, usSince(t0))
		}
	}
	out.set("pipeline.step_ns_per_cycle", runNS/cycles, pipelinePoints)
	out.set("pipeline.insts_per_s", insts/(runNS/1e9), pipelinePoints)
	out.pct("pipeline.new_us", newUS, 50)
	out.pct("pipeline.snapshot_us", snapUS, 50)

	var ffNS, ffN float64
	for _, req := range seededReqs(coldPool(profiles, true), r.cfg.seed, pipelinePoints) {
		cfg, err := req.BuildConfig()
		if err != nil {
			return err
		}
		wl, err := workload.Shared(req.Workload)
		if err != nil {
			return err
		}
		sim, err := pipeline.New(cfg, wl)
		if err != nil {
			return err
		}
		t0 := time.Now()
		n := sim.FastForward(ffInsts)
		ffNS += float64(time.Since(t0))
		ffN += float64(n)
	}
	out.set("pipeline.ff_ns_per_inst", ffNS/ffN, pipelinePoints)
	return nil
}

// seededReqs is a seeded pick of n requests.
func seededReqs(reqs []experiments.PointRequest, seed int64, n int) []experiments.PointRequest {
	rand.New(rand.NewSource(seed)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs[:min(n, len(reqs))]
}

func usSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Microsecond) }
