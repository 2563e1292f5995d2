package uopsim_test

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"uopsim"
	"uopsim/internal/stats"
)

// TestGoldenMetricsViaSnapshotRoundTrip proves that a serialized snapshot is
// a lossless substitute for a live one — the property the run cache's disk
// blobs depend on. Every golden point is simulated, its before/after
// registry snapshots are pushed through JSON (marshal, decode, validate),
// and the metrics re-derived from the decoded copies must still match
// testdata/golden_metrics.json bit-for-bit. A counter that loses integer
// precision in transit, a dropped sample, or an encoding that perturbs a
// float would all surface here as a golden mismatch.
func TestGoldenMetricsViaSnapshotRoundTrip(t *testing.T) {
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
	roundTrip := func(t *testing.T, s uopsim.StatsSnapshot) uopsim.StatsSnapshot {
		t.Helper()
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := stats.DecodeSnapshot(b)
		if err != nil {
			t.Fatal(err)
		}
		// DecodeSnapshot takes Snapshot's one-pass decoder; it must decode
		// exactly what encoding/json's reflection gives for the same bytes,
		// in a slice sized once.
		var plain struct {
			Samples []stats.Sample `json:"samples"`
		}
		if err := json.Unmarshal(b, &plain); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(decoded.Samples, plain.Samples) || cap(decoded.Samples) != len(plain.Samples) {
			t.Fatalf("a one-pass decode differs from a plain decode (%d samples, capacity %d, plain %d)", len(decoded.Samples), cap(decoded.Samples), len(plain.Samples))
		}
		return decoded
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
			a := roundTrip(t, sim.StatsSnapshot())
			if err := sim.Run(gf.Measure); err != nil {
				t.Fatal(err)
			}
			b := roundTrip(t, sim.StatsSnapshot())
			m := uopsim.MetricsFromSnapshots(a, b)
			if !reflect.DeepEqual(m, pt.Metrics) {
				t.Errorf("round-tripped metrics diverged from golden\n got: %+v\nwant: %+v", m, pt.Metrics)
			}
		})
	}
}
