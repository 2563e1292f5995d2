// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (DESIGN.md §4). Each benchmark simulates a representative slice
// per iteration and reports the figure's metric via b.ReportMetric, so
//
//	go test -bench=Fig16 -benchmem
//
// regenerates that figure's series at benchmark scale. cmd/uopexp produces
// the full 13-workload tables.
package uopsim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"

	"uopsim/internal/pipeline"
	"uopsim/internal/workload"
)

const (
	benchWarmup  = 30_000
	benchMeasure = 100_000
)

// benchWorkloads is a representative spread: the paper's biggest winner
// (gcc), a cloud workload, a low-MPKI server workload, and a loopy kernel.
var benchWorkloads = []string{"bm_cc", "nutch", "redis", "bm_x64"}

func runPoint(b *testing.B, name string, cfg Config) Metrics {
	b.Helper()
	wl, err := workload.Shared(name)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := pipeline.New(cfg, wl)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Release() // as the engine does: the next point reuses the core
	m, err := sim.RunMeasured(benchWarmup, benchMeasure)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// simulate runs b.N measured slices and reports simulator throughput plus
// the requested figure metrics from the final slice.
func simulate(b *testing.B, name string, cfg Config, report func(*testing.B, Metrics)) {
	b.Helper()
	primeCorePool(b, name, cfg)
	var m Metrics
	insts := 0
	for i := 0; i < b.N; i++ {
		m = runPoint(b, name, cfg)
		insts += int(m.Insts)
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
	report(b, m)
}

// primeCorePool builds and releases one simulator, untimed, so the first
// timed slice starts where an engine worker's next point does: with a
// released core at hand. The harness runs each b.N round on a new
// goroutine after a GC, and sync.Pool hands a core the GC set aside only
// to the processor that released it, so without this a round could start
// on a new core.
func primeCorePool(b *testing.B, name string, cfg Config) {
	b.Helper()
	wl, err := workload.Shared(name)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := pipeline.New(cfg, wl)
	if err != nil {
		b.Fatal(err)
	}
	sim.Release()
	b.ResetTimer()
}

// BenchmarkTableII regenerates the workload table's measured column.
func BenchmarkTableII(b *testing.B) {
	for _, name := range benchWorkloads {
		b.Run(name, func(b *testing.B) { tableIIRow(b, name) })
	}
}

// tableIIRow is one BenchmarkTableII row; TestBenchPipeline times the same body.
func tableIIRow(b *testing.B, name string) {
	simulate(b, name, DefaultConfig(), func(b *testing.B, m Metrics) {
		b.ReportMetric(m.BranchMPKI, "MPKI")
		b.ReportMetric(m.UPC, "UPC")
	})
}

var updateBench = flag.Bool("update-bench", false, "rewrite BENCH_pipeline.json from BenchmarkTableII's rows, keeping the previous report under before")

// pipelineRuns is how many times -update-bench measures each row. One run
// is noisier than the file would suggest (a redis row once read 14% below
// the median of 20), so a row records the median and quartiles of these
// runs; with 9 runs the quartiles are the 3rd and 7th sorted values.
const pipelineRuns = 9

// pipelineReport is BENCH_pipeline.json: one BenchmarkTableII row per
// workload, with the report it replaced under Before.
type pipelineReport struct {
	Bench   string `json:"bench"`
	Warmup  uint64 `json:"warmup_insts"`
	Measure uint64 `json:"measure_insts"`
	// Iters is b.N of each run; Runs the runs per row.
	Iters   int             `json:"iters_per_workload"`
	Runs    int             `json:"runs_per_workload,omitempty"`
	Results []pipelineRow   `json:"results"`
	Before  *pipelineReport `json:"before,omitempty"`
}

// pipelineRow holds medians over the report's runs, with the quartiles of
// insts/s (reports before Runs hold one run and no quartiles).
type pipelineRow struct {
	Workload      string  `json:"workload"`
	InstsPerSec   float64 `json:"insts_per_sec"`
	InstsPerSecQ1 float64 `json:"insts_per_sec_q1,omitempty"`
	InstsPerSecQ3 float64 `json:"insts_per_sec_q3,omitempty"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	NsPerOp       int64   `json:"ns_per_op"`
	UPC           float64 `json:"upc"`
	MPKI          float64 `json:"mpki"`
	// Snapshot is every counter of one more, untimed run.
	Snapshot StatsSnapshot `json:"snapshot"`
}

// quartiles returns the lower quartile, median and upper quartile of xs by
// nearest rank, sorting xs in place.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	slices.Sort(xs)
	at := func(k int) float64 { return xs[k*(len(xs)-1)/4] }
	return at(1), at(2), at(3)
}

// TestBenchPipeline checks that BENCH_pipeline.json has one row per
// BenchmarkTableII workload at the benchmark's run lengths. With
// -update-bench it first measures every row pipelineRuns times, the rows
// interleaved so that drift in the host's speed reaches each alike, and
// rewrites the file:
//
//	go test -run TestBenchPipeline -update-bench -benchtime 3x .
func TestBenchPipeline(t *testing.T) {
	const file = "BENCH_pipeline.json"
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var rep pipelineReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	if *updateBench {
		prev := rep
		prev.Before = nil // keep one level of history
		rep = pipelineReport{Bench: "TableII", Warmup: benchWarmup, Measure: benchMeasure, Runs: pipelineRuns, Before: &prev}
		runs := make([][]testing.BenchmarkResult, len(benchWorkloads))
		for range pipelineRuns {
			for w, name := range benchWorkloads {
				res := testing.Benchmark(func(b *testing.B) { tableIIRow(b, name) })
				if res.N == 0 {
					t.Fatalf("%s: benchmark failed (run BenchmarkTableII to see why)", name)
				}
				if rep.Iters != 0 && res.N != rep.Iters {
					t.Fatalf("runs had b.N = %d and %d: pass -benchtime Nx", rep.Iters, res.N)
				}
				rep.Iters = res.N
				runs[w] = append(runs[w], res)
			}
		}
		for w, name := range benchWorkloads {
			stat := func(f func(testing.BenchmarkResult) float64) (q1, q2, q3 float64) {
				xs := make([]float64, len(runs[w]))
				for i, res := range runs[w] {
					xs[i] = f(res)
				}
				return quartiles(xs)
			}
			q1, ips, q3 := stat(func(r testing.BenchmarkResult) float64 { return r.Extra["insts/s"] })
			_, allocs, _ := stat(func(r testing.BenchmarkResult) float64 { return float64(r.AllocsPerOp()) })
			_, bytes, _ := stat(func(r testing.BenchmarkResult) float64 { return float64(r.AllocedBytesPerOp()) })
			_, ns, _ := stat(func(r testing.BenchmarkResult) float64 { return float64(r.NsPerOp()) })
			sim, err := NewSimulator(DefaultConfig(), name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.RunMeasured(benchWarmup, benchMeasure); err != nil {
				t.Fatal(err)
			}
			last := runs[w][len(runs[w])-1]
			rep.Results = append(rep.Results, pipelineRow{
				Workload:      name,
				InstsPerSec:   ips,
				InstsPerSecQ1: q1,
				InstsPerSecQ3: q3,
				AllocsPerOp:   int64(allocs),
				BytesPerOp:    int64(bytes),
				NsPerOp:       int64(ns),
				UPC:           last.Extra["UPC"],
				MPKI:          last.Extra["MPKI"],
				Snapshot:      sim.StatsSnapshot(),
			})
			sim.Release()
			t.Logf("%-8s %.0f insts/s [%.0f, %.0f], %d allocs/op, %d B/op", name, ips, q1, q3, int64(allocs), int64(bytes))
		}
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	for _, r := range rep.Results {
		names = append(names, r.Workload)
	}
	if rep.Warmup != benchWarmup || rep.Measure != benchMeasure || !slices.Equal(names, benchWorkloads) {
		t.Errorf("%s has rows %v at %d+%d insts, BenchmarkTableII has %v at %d+%d",
			file, names, rep.Warmup, rep.Measure, benchWorkloads, benchWarmup, benchMeasure)
	}
}

// capacityBench parameterizes Figs 3 and 4.
func capacityBench(b *testing.B, report func(*testing.B, Metrics)) {
	b.Helper()
	for _, name := range benchWorkloads {
		for _, capUops := range []int{2048, 8192, 65536} {
			b.Run(fmt.Sprintf("%s/%dK", name, capUops/1024), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.UopCache.CapacityUops = capUops
				simulate(b, name, cfg, report)
			})
		}
	}
}

// BenchmarkFig3 reports UPC and decoder power across uop cache capacities.
func BenchmarkFig3(b *testing.B) {
	capacityBench(b, func(b *testing.B, m Metrics) {
		b.ReportMetric(m.UPC, "UPC")
		b.ReportMetric(m.DecoderPower, "decPower")
	})
}

// BenchmarkFig4 reports fetch ratio, dispatch bandwidth and mispredict
// latency across capacities.
func BenchmarkFig4(b *testing.B) {
	capacityBench(b, func(b *testing.B, m Metrics) {
		b.ReportMetric(m.OCFetchRatio, "ocRatio")
		b.ReportMetric(m.DispatchBW, "dispatchBW")
		b.ReportMetric(m.AvgMispLatency, "mispLat")
	})
}

// entryStatsBench runs cfg and reports entry-shape statistics from the
// final slice (Figs 5, 6, 9, 12, 18 and 19 share this harness).
func entryStatsBench(b *testing.B, cfg Config, report func(*testing.B, *pipeline.Sim)) {
	b.Helper()
	for _, name := range benchWorkloads {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim, err := NewSimulator(cfg, name)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.RunMeasured(benchWarmup, benchMeasure); err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					report(b, sim)
				}
			}
		})
	}
}

// BenchmarkFig5 reports the entry-size distribution buckets.
func BenchmarkFig5(b *testing.B) {
	entryStatsBench(b, DefaultConfig(), func(b *testing.B, sim *pipeline.Sim) {
		st := sim.UopCacheStats()
		b.ReportMetric(100*st.SizeHist.Fraction(0), "pct_1-19B")
		b.ReportMetric(100*st.SizeHist.Fraction(1), "pct_20-39B")
		b.ReportMetric(100*st.SizeHist.Fraction(2), "pct_40-64B")
	})
}

// BenchmarkFig6 reports the taken-branch termination fraction.
func BenchmarkFig6(b *testing.B) {
	entryStatsBench(b, DefaultConfig(), func(b *testing.B, sim *pipeline.Sim) {
		b.ReportMetric(100*sim.UopCacheStats().TakenTermFraction(), "pct_takenTerm")
	})
}

// BenchmarkFig9 reports the fraction of CLASP entries spanning I-cache line
// boundaries.
func BenchmarkFig9(b *testing.B) {
	entryStatsBench(b, WithCLASP(DefaultConfig()), func(b *testing.B, sim *pipeline.Sim) {
		b.ReportMetric(100*sim.UopCacheStats().SpanFraction(), "pct_spanning")
	})
}

// BenchmarkFig12 reports the entries-per-PW distribution.
func BenchmarkFig12(b *testing.B) {
	entryStatsBench(b, DefaultConfig(), func(b *testing.B, sim *pipeline.Sim) {
		d := &sim.UopCacheStats().EntriesPerPW
		b.ReportMetric(100*d.Fraction(1), "pct_1entry")
		b.ReportMetric(100*d.Fraction(2), "pct_2entries")
	})
}

// schemeBench parameterizes the per-scheme figures (15, 16, 17, 20, 21, 22).
func schemeBench(b *testing.B, capacity, maxEntries int, report func(*testing.B, Metrics)) {
	b.Helper()
	for _, name := range benchWorkloads {
		for _, sc := range Schemes(maxEntries) {
			b.Run(fmt.Sprintf("%s/%s", name, sc.Name), func(b *testing.B) {
				simulate(b, name, sc.Configure(capacity), report)
			})
		}
	}
}

// BenchmarkFig15 reports decoder power per scheme.
func BenchmarkFig15(b *testing.B) {
	schemeBench(b, 2048, 2, func(b *testing.B, m Metrics) {
		b.ReportMetric(m.DecoderPower, "decPower")
	})
}

// BenchmarkFig16 reports UPC per scheme (2 compacted entries/line).
func BenchmarkFig16(b *testing.B) {
	schemeBench(b, 2048, 2, func(b *testing.B, m Metrics) {
		b.ReportMetric(m.UPC, "UPC")
	})
}

// BenchmarkFig17 reports fetch ratio, dispatch bandwidth and mispredict
// latency per scheme.
func BenchmarkFig17(b *testing.B) {
	schemeBench(b, 2048, 2, func(b *testing.B, m Metrics) {
		b.ReportMetric(m.OCFetchRatio, "ocRatio")
		b.ReportMetric(m.DispatchBW, "dispatchBW")
		b.ReportMetric(m.AvgMispLatency, "mispLat")
	})
}

// BenchmarkFig18 reports the compacted-fill ratio under F-PWAC.
func BenchmarkFig18(b *testing.B) {
	entryStatsBench(b, WithCompaction(DefaultConfig(), AllocFPWAC, 2), func(b *testing.B, sim *pipeline.Sim) {
		b.ReportMetric(100*sim.UopCacheStats().CompactedFraction(), "pct_compacted")
	})
}

// BenchmarkFig19 reports the allocation-technique distribution under F-PWAC.
func BenchmarkFig19(b *testing.B) {
	entryStatsBench(b, WithCompaction(DefaultConfig(), AllocFPWAC, 2), func(b *testing.B, sim *pipeline.Sim) {
		r, p, f := sim.UopCacheStats().AllocDistribution()
		b.ReportMetric(100*r, "pct_RAC")
		b.ReportMetric(100*p, "pct_PWAC")
		b.ReportMetric(100*f, "pct_FPWAC")
	})
}

// BenchmarkFig20 reports UPC per scheme with 3 compacted entries/line.
func BenchmarkFig20(b *testing.B) {
	schemeBench(b, 2048, 3, func(b *testing.B, m Metrics) {
		b.ReportMetric(m.UPC, "UPC")
	})
}

// BenchmarkFig21 reports the fetch ratio with 3 compacted entries/line.
func BenchmarkFig21(b *testing.B) {
	schemeBench(b, 2048, 3, func(b *testing.B, m Metrics) {
		b.ReportMetric(m.OCFetchRatio, "ocRatio")
	})
}

// BenchmarkFig22 reports UPC per scheme over a 4K-uop baseline.
func BenchmarkFig22(b *testing.B) {
	schemeBench(b, 4096, 2, func(b *testing.B, m Metrics) {
		b.ReportMetric(m.UPC, "UPC")
	})
}

// BenchmarkSurrogate measures the fast tier behind /v1/estimate against
// its two promises: a p99 predict latency under 1 ms, and at least 100x
// the throughput of one real simulation. The exact tier answers stored
// points; the knn tier answers the same grid at unstored capacities. CI
// gates p99_us and speedup_x on both rows of
//
//	go test -run '^$' -bench '^BenchmarkSurrogate$' -benchtime 20000x .
//
// The parent body runs once. It resolves a 325-point corpus (every
// workload x Schemes(2) x 5 capacities, 2k+10k insts) into a warehouse
// and trains the model uopsimd serves from it.
func BenchmarkSurrogate(b *testing.B) {
	params := ExperimentParams{WarmupInsts: 2_000, MeasureInsts: 10_000}
	var pts []DesignPoint
	for _, name := range WorkloadNames() {
		for _, sc := range Schemes(2) {
			for _, capacity := range []int{512, 1024, 2048, 4096, 8192} {
				pts = append(pts, DesignPoint{Workload: name, Scheme: sc, Capacity: capacity})
			}
		}
	}
	eng, ws, err := NewWarehouseRunEngine(b.TempDir(), WarehouseOptions{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer ws.Close()
	params.Engine = eng
	if _, err := RunDesignPoints(params, pts); err != nil {
		b.Fatal(err)
	}
	model, _, err := TrainSurrogate(ws, SurrogateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if model.Len() < len(pts) {
		b.Fatalf("surrogate trained on %d points, want the full %d-point corpus", model.Len(), len(pts))
	}
	exact := make([]Features, len(pts))
	knn := make([]Features, len(pts))
	for i, pt := range pts {
		if exact[i], err = DesignPointFeatures(pt, params); err != nil {
			b.Fatal(err)
		}
		pt.Capacity += 256
		if knn[i], err = DesignPointFeatures(pt, params); err != nil {
			b.Fatal(err)
		}
	}
	// The speedup's denominator: the mean wall clock of 3 simulations of
	// the first corpus point, after an untimed one.
	cfg := pts[0].Scheme.Configure(pts[0].Capacity)
	var simNs float64
	for i := 0; i < 4; i++ {
		start := time.Now()
		if _, err := Run(cfg, pts[0].Workload, params.WarmupInsts, params.MeasureInsts); err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			simNs += float64(time.Since(start).Nanoseconds()) / 3
		}
	}
	for _, tier := range []struct {
		name  string
		feats []Features
		exact bool
	}{{"exact", exact, true}, {"knn", knn, false}} {
		b.Run(tier.name, func(b *testing.B) {
			lats := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range lats {
				t0 := time.Now()
				pred, ok := model.Predict(tier.feats[i%len(tier.feats)])
				lats[i] = time.Since(t0)
				if !ok {
					b.Fatalf("surrogate refused a corpus-adjacent query (i=%d)", i)
				}
				if pred.Exact != tier.exact {
					b.Fatalf("query exactness = %v, want %v (i=%d)", pred.Exact, tier.exact, i)
				}
			}
			b.StopTimer()
			slices.Sort(lats)
			b.ReportMetric(float64(lats[(len(lats)-1)*99/100].Nanoseconds())/1e3, "p99_us")
			b.ReportMetric(simNs*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "speedup_x")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (engineering
// metric, not a paper figure).
func BenchmarkSimulatorThroughput(b *testing.B) {
	simulate(b, "bm_ds", DefaultConfig(), func(b *testing.B, m Metrics) {
		b.ReportMetric(m.UPC, "UPC")
	})
}
