package uopsim_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"uopsim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_metrics.json and testdata/golden_sampled.json from the current simulator")

// goldenPoint / goldenFile are the golden files' layout: a header that is
// the spec for the file's runs, then one point per workload x scheme.
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
// "sampled/"). Each file must also be byte-for-byte what the writer makes
// of it, so a regeneration of an unchanged simulator is a no-op.
//
// Only for a change that intentionally alters simulated behaviour,
// regenerate both files with
//
//	go test -run TestGoldenMetrics -update-golden .
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
		if *updateGolden {
			if raw, err = regenerateGolden(&gf); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if len(gf.Points) == 0 {
			t.Fatalf("%s has no points", file)
		}
		if b, err := marshalGolden(gf); err != nil {
			t.Fatal(err)
		} else if !bytes.Equal(b, raw) {
			t.Errorf("%s is not what -update-golden writes for its own contents: it was edited or reformatted by hand", file)
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

// regenerateGolden reruns every workload x Schemes(2) point at capacity
// 2048 with the run lengths and sampling in gf's header, replaces gf's
// points, and returns the file's new bytes.
func regenerateGolden(gf *goldenFile) ([]byte, error) {
	var pts []uopsim.DesignPoint
	for _, name := range uopsim.WorkloadNames() {
		for _, sc := range uopsim.Schemes(2) {
			pts = append(pts, uopsim.DesignPoint{Workload: name, Scheme: sc, Capacity: 2048})
		}
	}
	params := uopsim.ExperimentParams{WarmupInsts: gf.Warmup, MeasureInsts: gf.Measure}
	if gf.Sampling != nil {
		params.Sampling = *gf.Sampling
	}
	runs, err := uopsim.RunDesignPoints(params, pts)
	if err != nil {
		return nil, err
	}
	gf.Points = make([]goldenPoint, len(runs))
	for i, r := range runs {
		gf.Points[i] = goldenPoint{Workload: pts[i].Workload, Scheme: pts[i].Scheme.Name, Capacity: pts[i].Capacity, Metrics: r.Metrics}
	}
	return marshalGolden(*gf)
}

func marshalGolden(gf goldenFile) ([]byte, error) {
	b, err := json.MarshalIndent(gf, "", "  ")
	return append(b, '\n'), err
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
