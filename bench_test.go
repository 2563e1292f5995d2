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
	"fmt"
	"testing"

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
		b.Run(name, func(b *testing.B) {
			simulate(b, name, DefaultConfig(), func(b *testing.B, m Metrics) {
				b.ReportMetric(m.BranchMPKI, "MPKI")
				b.ReportMetric(m.UPC, "UPC")
			})
		})
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

// entryStats runs the baseline and reports entry-shape statistics
// (Figs 5, 6, 12 share this harness).
func entryStatsBench(b *testing.B, report func(*testing.B, *pipeline.Sim)) {
	b.Helper()
	for _, name := range benchWorkloads {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim, err := NewSimulator(DefaultConfig(), name)
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
	entryStatsBench(b, func(b *testing.B, sim *pipeline.Sim) {
		st := sim.UopCacheStats()
		b.ReportMetric(100*st.SizeHist.Fraction(0), "pct_1-19B")
		b.ReportMetric(100*st.SizeHist.Fraction(1), "pct_20-39B")
		b.ReportMetric(100*st.SizeHist.Fraction(2), "pct_40-64B")
	})
}

// BenchmarkFig6 reports the taken-branch termination fraction.
func BenchmarkFig6(b *testing.B) {
	entryStatsBench(b, func(b *testing.B, sim *pipeline.Sim) {
		b.ReportMetric(100*sim.UopCacheStats().TakenTermFraction(), "pct_takenTerm")
	})
}

// BenchmarkFig9 reports the fraction of CLASP entries spanning I-cache line
// boundaries.
func BenchmarkFig9(b *testing.B) {
	for _, name := range benchWorkloads {
		b.Run(name, func(b *testing.B) {
			cfg := WithCLASP(DefaultConfig())
			for i := 0; i < b.N; i++ {
				sim, err := NewSimulator(cfg, name)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.RunMeasured(benchWarmup, benchMeasure); err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(100*sim.UopCacheStats().SpanFraction(), "pct_spanning")
				}
			}
		})
	}
}

// BenchmarkFig12 reports the entries-per-PW distribution.
func BenchmarkFig12(b *testing.B) {
	entryStatsBench(b, func(b *testing.B, sim *pipeline.Sim) {
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
	for _, name := range benchWorkloads {
		b.Run(name, func(b *testing.B) {
			cfg := WithCompaction(DefaultConfig(), AllocFPWAC, 2)
			for i := 0; i < b.N; i++ {
				sim, err := NewSimulator(cfg, name)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.RunMeasured(benchWarmup, benchMeasure); err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(100*sim.UopCacheStats().CompactedFraction(), "pct_compacted")
				}
			}
		})
	}
}

// BenchmarkFig19 reports the allocation-technique distribution under F-PWAC.
func BenchmarkFig19(b *testing.B) {
	for _, name := range benchWorkloads {
		b.Run(name, func(b *testing.B) {
			cfg := WithCompaction(DefaultConfig(), AllocFPWAC, 2)
			for i := 0; i < b.N; i++ {
				sim, err := NewSimulator(cfg, name)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.RunMeasured(benchWarmup, benchMeasure); err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					r, p, f := sim.UopCacheStats().AllocDistribution()
					b.ReportMetric(100*r, "pct_RAC")
					b.ReportMetric(100*p, "pct_PWAC")
					b.ReportMetric(100*f, "pct_FPWAC")
				}
			}
		})
	}
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

// BenchmarkSimulatorThroughput measures raw simulation speed (engineering
// metric, not a paper figure).
func BenchmarkSimulatorThroughput(b *testing.B) {
	simulate(b, "bm_ds", DefaultConfig(), func(b *testing.B, m Metrics) {
		b.ReportMetric(m.UPC, "UPC")
	})
}
