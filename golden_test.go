package uopsim_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
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
// of it, so a regeneration of an unchanged simulator is a no-op. Every
// point's measured window must also cover what its Metrics do
// (checkAnswerWindow).
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
				sim, err := uopsim.NewSimulator(sc.Configure(pt.Capacity), pt.Workload)
				if err != nil {
					t.Fatal(err)
				}
				defer sim.Release()
				var sp uopsim.Sampling // disabled: a full run
				if gf.Sampling != nil {
					sp = *gf.Sampling
				}
				m, err := sim.RunSampled(gf.Warmup, gf.Measure, sp)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(m, pt.Metrics) {
					t.Errorf("metrics diverged from %s\n got: %+v\nwant: %+v", file, m, pt.Metrics)
				}
				checkAnswerWindow(t, sim.Window(), m)
			})
		}
	}
}

// checkAnswerWindow requires an answer's snapshot, the measured window w,
// to cover the instructions its metrics m do: the same dispatched
// instructions, and uop cache counts whose ratio is m's hit rate, exactly
// for a full run and within one count of rounding for a sampled one,
// whose window is scaled.
func checkAnswerWindow(t *testing.T, w uopsim.StatsSnapshot, m uopsim.Metrics) {
	t.Helper()
	if got := w.Counter("dispatch.insts"); got != m.Insts {
		t.Errorf("window dispatch.insts = %d, Metrics.Insts = %d", got, m.Insts)
	}
	hits, lookups := w.Counter("oc.hits"), w.Counter("oc.lookups")
	if lookups == 0 {
		t.Fatal("the window has no uop cache lookups")
	}
	if d := math.Abs(float64(hits)/float64(lookups) - m.OCHitRate); d > 1/float64(lookups) {
		t.Errorf("window oc.hits/oc.lookups = %d/%d, off Metrics.OCHitRate %v by %v", hits, lookups, m.OCHitRate, d)
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
