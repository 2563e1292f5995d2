package uopsim_test

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"uopsim"
)

// goldenPoint / goldenFile mirror cmd/uopbench's -golden output.
type goldenPoint struct {
	Workload string         `json:"workload"`
	Scheme   string         `json:"scheme"`
	Capacity int            `json:"capacity"`
	Metrics  uopsim.Metrics `json:"metrics"`
}

type goldenFile struct {
	Warmup  uint64 `json:"warmup_insts"`
	Measure uint64 `json:"measure_insts"`
	// Sampling, when set, means every point ran through RunSampled.
	Sampling *uopsim.Sampling `json:"sampling,omitempty"`
	Points   []goldenPoint    `json:"points"`
}

// TestGoldenMetrics proves that optimization work does not change any
// reported number: every scheme x workload point must produce bit-identical
// Metrics versus testdata/golden_metrics.json (full runs) and
// testdata/golden_sampled.json (interval-sampled runs, subtests under
// "sampled/"), both generated by cmd/uopbench -golden. Regenerate a file
// only for a change that intentionally alters simulated behaviour.
func TestGoldenMetrics(t *testing.T) {
	schemes := map[string]uopsim.Scheme{}
	for _, sc := range uopsim.Schemes(2) {
		schemes[sc.Name] = sc
	}
	for _, file := range []string{"testdata/golden_metrics.json", "testdata/golden_sampled.json"} {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var gf goldenFile
		if err := json.Unmarshal(raw, &gf); err != nil {
			t.Fatal(err)
		}
		if len(gf.Points) == 0 {
			t.Fatalf("%s has no points", file)
		}
		prefix := ""
		if gf.Sampling != nil {
			prefix = "sampled/"
		}
		for _, pt := range gf.Points {
			pt := pt
			t.Run(prefix+pt.Workload+"/"+pt.Scheme, func(t *testing.T) {
				t.Parallel()
				sc, ok := schemes[pt.Scheme]
				if !ok {
					t.Fatalf("unknown scheme %q in %s", pt.Scheme, file)
				}
				cfg := sc.Configure(pt.Capacity)
				var m uopsim.Metrics
				var err error
				if gf.Sampling != nil {
					m, err = uopsim.RunSampled(cfg, pt.Workload, gf.Warmup, gf.Measure, *gf.Sampling)
				} else {
					m, err = uopsim.Run(cfg, pt.Workload, gf.Warmup, gf.Measure)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(m, pt.Metrics) {
					t.Errorf("metrics diverged from %s\n got: %+v\nwant: %+v", file, m, pt.Metrics)
				}
			})
		}
	}
}

// TestGoldenMetricsViaRegistry proves the metrics registry is a lossless
// substrate: deriving every golden point's metrics from registry snapshots
// (instead of the simulator's direct accounting) must still reproduce
// testdata/golden_metrics.json bit-for-bit across all 13 workloads x 5
// schemes. A counter that loses precision in a snapshot, a renamed path, or
// a gauge computed differently would all surface here.
func TestGoldenMetricsViaRegistry(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var gf goldenFile
	if err := json.Unmarshal(raw, &gf); err != nil {
		t.Fatal(err)
	}
	if len(gf.Points) == 0 {
		t.Fatal("golden file has no points")
	}
	schemes := map[string]uopsim.Scheme{}
	for _, sc := range uopsim.Schemes(2) {
		schemes[sc.Name] = sc
	}
	for _, pt := range gf.Points {
		pt := pt
		t.Run(pt.Workload+"/"+pt.Scheme, func(t *testing.T) {
			t.Parallel()
			sc, ok := schemes[pt.Scheme]
			if !ok {
				t.Fatalf("unknown scheme %q in golden file", pt.Scheme)
			}
			sim, err := uopsim.NewSimulator(sc.Configure(pt.Capacity), pt.Workload)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(gf.Warmup); err != nil {
				t.Fatal(err)
			}
			a := sim.StatsSnapshot()
			if err := sim.Run(gf.Measure); err != nil {
				t.Fatal(err)
			}
			b := sim.StatsSnapshot()
			m := uopsim.MetricsFromSnapshots(a, b)
			if !reflect.DeepEqual(m, pt.Metrics) {
				t.Errorf("snapshot-derived metrics diverged from golden\n got: %+v\nwant: %+v", m, pt.Metrics)
			}
		})
	}
}
