// Command uopexp regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	uopexp -list
//	uopexp -exp fig16
//	uopexp -exp all -insts 300000 -warmup 100000
//	uopexp -exp fig3 -workloads bm_cc,nutch
//	uopexp -exp fig3 -cpuprofile cpu.out -memprofile mem.out
//	uopexp -exp fig3 -metrics snapshots.json
//	uopexp -exp all -warehouse .uopwh           # persist design points
//	uopexp -exp all -warehouse .uopwh -cache-verify 4
//	uopexp -estimate-validate -warehouse .uopwh # surrogate held-out accuracy
//
// Every design point is routed through a shared engine that simulates each
// unique (workload, config, run-length) fingerprint exactly once per
// invocation, no matter how many tables and figures ask for it; -warehouse
// extends the reuse across invocations. Results are bit-identical whether
// a point was simulated, memoized, or loaded warm from the warehouse. The
// engine's resolution counters are printed to stderr so stdout stays
// diffable.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"uopsim"
)

func main() {
	os.Exit(run())
}

// run holds the real main body so profile-flushing defers execute before the
// process exits (os.Exit in main would skip them).
func run() int {
	var (
		exp        = flag.String("exp", "all", "experiment id (see -list) or \"all\"")
		warmup     = flag.Uint64("warmup", uopsim.DefaultWarmupInsts, "warmup instructions per run")
		insts      = flag.Uint64("insts", uopsim.DefaultMeasureInsts, "measured instructions per run")
		workloads  = flag.String("workloads", "", "comma-separated workload subset (default: all 13)")
		parallel   = flag.Int("parallel", 0, "concurrent simulations (0 = all CPUs)")
		list       = flag.Bool("list", false, "list experiments and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		metricsOut = flag.String("metrics", "", "collect each design point's full metrics registry snapshot into this JSON file")
		cacheVer   = flag.Int("cache-verify", 0, "re-simulate every Nth disk-cached point and fail on any bit-level blob mismatch (0 = off; requires -warehouse)")
		whDir      = flag.String("warehouse", "", "persist design points in an indexed warehouse (segment files) at this directory and reuse them across invocations; enables feature queries over stored results")
		whMaxBytes = flag.Int64("warehouse-max-bytes", 0, "evict least-recently-used warehouse records past this byte budget (0 = unbounded; requires -warehouse)")
		sample     = flag.Bool("sample", false, "interval-sample every design point (several-fold cheaper, metrics within the documented error bounds; see EXPERIMENTS.md)")
		sampleK    = flag.Int("sample-intervals", 0, "sampling: measurement intervals per run (0 = default)")
		sampleM    = flag.Uint64("sample-insts", 0, "sampling: measured instructions per interval (0 = default)")
		sampleW    = flag.Uint64("sample-warmup", 0, "sampling: detailed-warmup instructions per interval (0 = default)")
		sampleVal  = flag.Bool("sample-validate", false, "run the sampling error-bound harness (full vs sampled on every workload) and write -sample-report")
		sampleBnd  = flag.Float64("sample-bound", 6.0, "sample-validate: fail if any gated metric's worst relative error exceeds this percentage")
		sampleRep  = flag.String("sample-report", "BENCH_sampling.json", "sample-validate: machine-readable report path (\"-\" for stdout)")
		estVal     = flag.Bool("estimate-validate", false, "run the surrogate held-out accuracy harness (train on the grid, score the holdout) and write -estimate-report")
		estBnd     = flag.Float64("estimate-bound", 6.0, "estimate-validate: fail if any gated metric's confident-subset worst relative error exceeds this percentage")
		estRep     = flag.String("estimate-report", "BENCH_estimate.json", "estimate-validate: machine-readable report path (\"-\" for stdout)")
		estConf    = flag.Float64("estimate-confidence", 0, "estimate-validate: serving gate splitting confident from fall-through predictions (0 = default 0.7)")
	)
	flag.Parse()

	if (*cacheVer > 0 || *whMaxBytes != 0) && *whDir == "" {
		fmt.Fprintln(os.Stderr, "uopexp: -cache-verify and -warehouse-max-bytes require -warehouse")
		return 2
	}

	if *list {
		for _, e := range uopsim.Experiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "uopexp:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "uopexp:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "uopexp:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush accumulated allocation stats
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "uopexp:", err)
			}
		}()
	}

	params := uopsim.ExperimentParams{
		WarmupInsts:  *warmup,
		MeasureInsts: *insts,
		Parallel:     *parallel,
	}
	if *sample || *sampleK > 0 || *sampleM > 0 || *sampleW > 0 {
		params.Sampling = uopsim.Sampling{
			Enabled:       true,
			Intervals:     *sampleK,
			IntervalInsts: *sampleM,
			WarmupInsts:   *sampleW,
		}
	}
	if *workloads != "" {
		params.Workloads = strings.Split(*workloads, ",")
	}
	if *sampleVal {
		sp := params.Sampling
		sp.Enabled = true
		names := params.Workloads
		if len(names) == 0 {
			names = uopsim.WorkloadNames()
		}
		return runSampleValidate(names, *warmup, *insts, sp, *sampleBnd, *sampleRep)
	}
	var wh *uopsim.ResultsWarehouse
	if *whDir != "" {
		eng, ws, err := uopsim.NewWarehouseRunEngine(*whDir, uopsim.WarehouseOptions{MaxBytes: *whMaxBytes}, *cacheVer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "uopexp:", err)
			return 1
		}
		defer ws.Close()
		wh = ws
		params.Engine = eng
	} else {
		params.Engine = uopsim.NewRunEngine()
	}
	// Unlike -sample-validate, this branch sits after engine setup on
	// purpose: pointing it at the warehouse a cold sweep just filled makes
	// grid resolution a pure disk replay instead of a re-simulation.
	if *estVal {
		if wh != nil {
			defer func() { fmt.Fprintf(os.Stderr, "[warehouse: %s]\n", wh) }()
		}
		return runEstimateValidate(params, *estBnd, *estConf, *estRep)
	}
	var collected []runSnapshot
	if *metricsOut != "" {
		params.SnapshotSink = func(r uopsim.ExperimentRun) {
			collected = append(collected, newRunSnapshot(r))
		}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = ids[:0]
		for _, e := range uopsim.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		start := time.Now()
		if err := uopsim.RunExperiment(id, os.Stdout, params); err != nil {
			fmt.Fprintln(os.Stderr, "uopexp:", err)
			return 1
		}
		// stderr, like the engine stats: stdout must stay byte-comparable
		// across runs, and wall-clock timing is the one nondeterministic
		// line. CI diffs cold vs warm sweeps directly on stdout.
		fmt.Fprintf(os.Stderr, "[%s completed in %.1fs]\n", id, time.Since(start).Seconds())
	}
	if *metricsOut != "" {
		n, err := writeSnapshots(*metricsOut, collected, params.Engine)
		if err != nil {
			fmt.Fprintln(os.Stderr, "uopexp:", err)
			return 1
		}
		fmt.Printf("[%d run snapshots written to %s]\n", n, *metricsOut)
	}
	// stderr, deliberately: stdout must stay byte-identical whether
	// points were simulated, memoized, or loaded from disk.
	fmt.Fprintf(os.Stderr, "[engine: %s]\n", params.Engine.Stats())
	if wh != nil {
		fmt.Fprintf(os.Stderr, "[warehouse: %s]\n", wh)
	}
	return 0
}

// runSnapshot pairs one sweep run's identity with its registry snapshot.
// The entries-per-line bound is part of the identity: Figs 16-19 and
// 20-21 run RAC, PWAC and F-PWAC at 2048 uops under 2 and 3.
type runSnapshot struct {
	Workload   string               `json:"workload"`
	Scheme     string               `json:"scheme"`
	Capacity   int                  `json:"capacity"`
	MaxEntries int                  `json:"max_entries"`
	Snapshot   uopsim.StatsSnapshot `json:"snapshot"`
}

// newRunSnapshot names r by its identity.
func newRunSnapshot(r uopsim.ExperimentRun) runSnapshot {
	return runSnapshot{
		Workload:   r.Workload,
		Scheme:     r.Scheme,
		Capacity:   r.Capacity,
		MaxEntries: r.MaxEntries,
		Snapshot:   r.Snapshot,
	}
}

// metricsFile is the -metrics output shape: each design point's registry
// snapshot plus the engine's dedupe counters in the same registry snapshot form the
// daemon's /metrics endpoint exposes.
type metricsFile struct {
	Runs   []runSnapshot        `json:"runs"`
	Engine uopsim.StatsSnapshot `json:"engine"`
}

// compare orders runs by identity.
func (a runSnapshot) compare(b runSnapshot) int {
	return cmp.Or(
		strings.Compare(a.Workload, b.Workload),
		strings.Compare(a.Scheme, b.Scheme),
		cmp.Compare(a.Capacity, b.Capacity),
		cmp.Compare(a.MaxEntries, b.MaxEntries),
	)
}

// writeSnapshots dumps the collected snapshots sorted by run identity,
// each identity once, and returns how many it wrote. Experiments repeat
// design points (Figs 16 and 17 both run every scheme at 2048 uops), and
// runs that share an identity carry the same snapshot
// (TestRunSnapshotIdentityUnique). The sort is stable, so the run kept is
// the sink's first, which is point order and so independent of
// scheduling.
func writeSnapshots(path string, runs []runSnapshot, eng *uopsim.RunEngine) (int, error) {
	slices.SortStableFunc(runs, runSnapshot.compare)
	runs = slices.CompactFunc(runs, func(a, b runSnapshot) bool { return a.compare(b) == 0 })
	out := metricsFile{Runs: runs, Engine: eng.StatsSnapshot()}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return 0, err
	}
	return len(runs), f.Close()
}
