// Command uopbench is the repo's perf-regression harness: it measures
// simulator throughput (insts/s) and allocation rates (allocs/op, bytes/op)
// for the BenchmarkTableII workloads and writes a machine-readable report,
// conventionally committed as BENCH_pipeline.json so successive PRs record
// the performance trajectory.
//
// Usage:
//
//	uopbench -out BENCH_pipeline.json              # measure, write report
//	uopbench -out new.json -before old.json        # embed previous numbers
//	uopbench -golden testdata/golden_metrics.json  # dump golden metrics
//	uopbench -golden testdata/golden_sampled.json -sample \
//	    -sample-intervals 4 -sample-insts 2000 -sample-warmup 1000
//	uopbench -surrogate BENCH_surrogate.json       # fast-tier latency report
//
// The -golden mode runs every scheme x workload point at a small fixed scale
// and dumps the exact Metrics; the root TestGoldenMetrics compares the
// current simulator against that file bit-for-bit, so perf work cannot
// silently change reported numbers. With -sample the dump runs every point
// interval-sampled at a longer fixed scale (a 10k-instruction run is too
// short for sampling windows) and records the resolved Sampling in the file.
//
// The -surrogate mode (see surrogate.go) trains the /v1/estimate fast tier
// on a 325-point corpus and reports predict latency percentiles and the
// speedup over a real simulation, gating on p99 < 1ms and >= 100x.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"uopsim"
)

// benchWorkloads mirrors the root bench_test.go BenchmarkTableII set.
var benchWorkloads = []string{"bm_cc", "nutch", "redis", "bm_x64"}

// Result is one workload's measurement.
type Result struct {
	Workload    string  `json:"workload"`
	InstsPerSec float64 `json:"insts_per_sec"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	NsPerOp     int64   `json:"ns_per_op"`
	UPC         float64 `json:"upc"`
	MPKI        float64 `json:"mpki"`
	// Snapshot is the last iteration's full metrics registry dump, so BENCH
	// files carry every observable instead of hand-picked fields.
	Snapshot uopsim.StatsSnapshot `json:"snapshot,omitempty"`
}

// Report is the serialized harness output.
type Report struct {
	Bench   string `json:"bench"`
	Warmup  uint64 `json:"warmup_insts"`
	Measure uint64 `json:"measure_insts"`
	Iters   int    `json:"iters_per_workload"`
	// Sampling, when enabled, records that every op ran interval-sampled
	// (RunSampled) — sampled and full reports are not comparable rows.
	Sampling *uopsim.Sampling `json:"sampling,omitempty"`
	Results  []Result         `json:"results"`
	// Before carries the previous report (typically the state before an
	// optimization PR) for side-by-side comparison.
	Before *Report `json:"before,omitempty"`
}

// GoldenPoint is one scheme x workload metrics dump.
type GoldenPoint struct {
	Workload string         `json:"workload"`
	Scheme   string         `json:"scheme"`
	Capacity int            `json:"capacity"`
	Metrics  uopsim.Metrics `json:"metrics"`
}

// Golden-dump scale: small enough for a test, large enough to exercise every
// front-end path. These constants are shared with the root golden test via
// the JSON header.
type GoldenFile struct {
	Warmup  uint64 `json:"warmup_insts"`
	Measure uint64 `json:"measure_insts"`
	// Sampling, when set, means every point ran interval-sampled
	// (RunSampled) with these resolved knobs.
	Sampling *uopsim.Sampling `json:"sampling,omitempty"`
	Points   []GoldenPoint    `json:"points"`
}

const (
	goldenWarmup  = 2_000
	goldenMeasure = 10_000

	goldenSampledWarmup  = 20_000
	goldenSampledMeasure = 100_000
)

func main() {
	var (
		out       = flag.String("out", "BENCH_pipeline.json", "output report path (\"-\" for stdout)")
		before    = flag.String("before", "", "previous report to embed under \"before\"")
		golden    = flag.String("golden", "", "write a golden metrics dump to this path and exit")
		surrogate = flag.String("surrogate", "", "write the surrogate fast-tier latency/speedup report to this path and exit (conventionally BENCH_surrogate.json)")
		warmup    = flag.Uint64("warmup", 30_000, "warmup instructions per run")
		insts     = flag.Uint64("insts", 100_000, "measured instructions per run")
		iters     = flag.Int("iters", 3, "measured iterations per workload")
		workloads = flag.String("workloads", "", "comma-separated workload subset (default: TableII bench set)")
		parallel  = flag.Int("parallel", 1, "concurrent simulations (0 = all CPUs; >1 disables the alloc columns, which are only attributable sequentially)")
		whDir     = flag.String("warehouse", "", "golden and surrogate modes only: design-point warehouse directory (the throughput harness never caches — it must measure real simulation)")
		sample    = flag.Bool("sample", false, "measure interval-sampled simulation (RunSampled) instead of full runs")
		sampleK   = flag.Int("sample-intervals", 0, "sampling: measurement intervals per run (0 = default)")
		sampleM   = flag.Uint64("sample-insts", 0, "sampling: measured instructions per interval (0 = default)")
		sampleW   = flag.Uint64("sample-warmup", 0, "sampling: detailed-warmup instructions per interval (0 = default)")
	)
	flag.Parse()

	var sp uopsim.Sampling
	if *sample || *sampleK > 0 || *sampleM > 0 || *sampleW > 0 {
		sp = uopsim.Sampling{
			Enabled:       true,
			Intervals:     *sampleK,
			IntervalInsts: *sampleM,
			WarmupInsts:   *sampleW,
		}
	}
	if *golden != "" {
		if err := writeGolden(*golden, *parallel, *whDir, sp); err != nil {
			fmt.Fprintln(os.Stderr, "uopbench:", err)
			os.Exit(1)
		}
		return
	}
	if *surrogate != "" {
		if err := runSurrogateBench(*surrogate, *parallel, *whDir); err != nil {
			fmt.Fprintln(os.Stderr, "uopbench:", err)
			os.Exit(1)
		}
		return
	}
	if *whDir != "" {
		fmt.Fprintln(os.Stderr, "uopbench: -warehouse only applies to -golden and -surrogate (a cached benchmark would measure disk reads, not the simulator)")
		os.Exit(2)
	}

	names := benchWorkloads
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	}
	rep, err := run(names, *warmup, *insts, *iters, *parallel, sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uopbench:", err)
		os.Exit(1)
	}
	if *before != "" {
		prev, err := readReport(*before)
		if err != nil {
			fmt.Fprintln(os.Stderr, "uopbench:", err)
			os.Exit(1)
		}
		prev.Before = nil // keep at most one level of history
		rep.Before = prev
	}
	if err := writeJSON(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "uopbench:", err)
		os.Exit(1)
	}
	// The summary carries measured wall-clock rates, so it goes to stderr:
	// stdout stays byte-comparable between runs (the report file is the
	// machine-readable output).
	for _, r := range rep.Results {
		fmt.Fprintf(os.Stderr, "%-10s %12.0f insts/s %10d allocs/op %12d B/op  UPC=%.3f MPKI=%.2f\n",
			r.Workload, r.InstsPerSec, r.AllocsPerOp, r.BytesPerOp, r.UPC, r.MPKI)
	}
}

// run measures each workload: one untimed warmup op, then iters timed ops.
// An op is a full simulation (NewSimulator + RunMeasured + Release), matching
// the root BenchmarkTableII, so workload-build sharing and core recycling
// show up in the numbers. With sampling enabled an op is RunSampled instead,
// and insts/s becomes the effective design-point rate: extrapolated
// instructions over sampled wall clock, i.e. the per-point speedup shows up
// directly in the column.
//
// With parallel > 1 the workloads run concurrently on a worker pool; wall
// clock drops but the alloc columns are zeroed, because runtime.MemStats is
// process-global and cannot attribute allocations to one workload while
// others run. parallel == 1 (the default) is byte-identical to the
// historical sequential harness.
func run(names []string, warmup, insts uint64, iters, parallel int, sp uopsim.Sampling) (*Report, error) {
	if iters < 1 {
		iters = 1
	}
	if parallel <= 0 {
		parallel = runtime.NumCPU()
	}
	rep := &Report{Bench: "TableII", Warmup: warmup, Measure: insts, Iters: iters}
	if sp.Enabled {
		resolved := sp.WithDefaults(insts)
		if err := resolved.Validate(insts); err != nil {
			return nil, err
		}
		rep.Sampling = &resolved
	}
	cfg := uopsim.DefaultConfig()

	measure := func(name string, attributeAllocs bool) (Result, error) {
		var m uopsim.Metrics
		var last *uopsim.Simulator
		var msBefore, msAfter runtime.MemStats
		if attributeAllocs {
			runtime.GC()
		}
		// The untimed op runs after the GC: it leaves its released core
		// where the first timed op finds it, as a running engine would.
		if _, err := uopsim.RunSampled(cfg, name, warmup, insts, sp); err != nil {
			return Result{}, fmt.Errorf("%s: %w", name, err)
		}
		if attributeAllocs {
			runtime.ReadMemStats(&msBefore)
		}
		start := time.Now()
		total := uint64(0)
		for i := 0; i < iters; i++ {
			// Release the previous op's simulator before building the
			// next, as the engine does, so each op reuses its core.
			if last != nil {
				last.Release()
			}
			sim, err := uopsim.NewSimulator(cfg, name)
			if err != nil {
				return Result{}, fmt.Errorf("%s: %w", name, err)
			}
			m, err = sim.RunSampled(warmup, insts, sp)
			if err != nil {
				return Result{}, fmt.Errorf("%s: %w", name, err)
			}
			total += m.Insts
			last = sim
		}
		elapsed := time.Since(start)
		r := Result{
			Workload:    name,
			InstsPerSec: float64(total) / elapsed.Seconds(),
			NsPerOp:     elapsed.Nanoseconds() / int64(iters),
			UPC:         m.UPC,
			MPKI:        m.BranchMPKI,
			Snapshot:    last.StatsSnapshot(),
		}
		last.Release()
		if attributeAllocs {
			runtime.ReadMemStats(&msAfter)
			r.AllocsPerOp = (msAfter.Mallocs - msBefore.Mallocs) / uint64(iters)
			r.BytesPerOp = (msAfter.TotalAlloc - msBefore.TotalAlloc) / uint64(iters)
		}
		return r, nil
	}

	if parallel == 1 {
		for _, name := range names {
			r, err := measure(name, true)
			if err != nil {
				return nil, err
			}
			rep.Results = append(rep.Results, r)
		}
		return rep, nil
	}

	results := make([]Result, len(names))
	errs := make([]error, len(names))
	in := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range in {
				results[i], errs[i] = measure(names[i], false)
			}
		}()
	}
	for i := range names {
		in <- i
	}
	close(in)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rep.Results = append(rep.Results, results...)
	return rep, nil
}

// writeGolden dumps exact metrics for every scheme x workload point, routed
// through the shared design-point engine so the dump can run in parallel
// and, with a warehouse, reuse blobs from previous invocations. The point
// order — and therefore the file — is identical to the historical
// sequential loop. An enabled sp runs every point sampled at the
// goldenSampled* scale.
func writeGolden(path string, parallel int, whDir string, sp uopsim.Sampling) error {
	var pts []uopsim.DesignPoint
	for _, name := range uopsim.WorkloadNames() {
		for _, sc := range uopsim.Schemes(2) {
			pts = append(pts, uopsim.DesignPoint{Workload: name, Scheme: sc, Capacity: 2048})
		}
	}
	gf := GoldenFile{Warmup: goldenWarmup, Measure: goldenMeasure}
	if sp.Enabled {
		gf.Warmup, gf.Measure = goldenSampledWarmup, goldenSampledMeasure
		resolved := sp.WithDefaults(gf.Measure)
		gf.Sampling = &resolved
	}
	params := uopsim.ExperimentParams{
		WarmupInsts:  gf.Warmup,
		MeasureInsts: gf.Measure,
		Parallel:     parallel,
		Sampling:     sp,
	}
	var eng *uopsim.RunEngine
	if whDir != "" {
		var ws *uopsim.ResultsWarehouse
		var err error
		eng, ws, err = uopsim.NewWarehouseRunEngine(whDir, uopsim.WarehouseOptions{}, 0)
		if err != nil {
			return err
		}
		defer ws.Close()
	} else {
		eng = uopsim.NewRunEngine()
	}
	params.Engine = eng
	runs, err := uopsim.RunDesignPoints(params, pts)
	if err != nil {
		return err
	}
	for i, r := range runs {
		gf.Points = append(gf.Points, GoldenPoint{
			Workload: pts[i].Workload, Scheme: pts[i].Scheme.Name, Capacity: 2048, Metrics: r.Metrics,
		})
	}
	if whDir != "" {
		fmt.Fprintf(os.Stderr, "[engine: %s]\n", eng.Stats())
	}
	return writeJSON(path, gf)
}

func readReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
