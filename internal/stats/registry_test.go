package stats

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRegistryRegistrationAndSnapshot(t *testing.T) {
	r := NewRegistry()
	hits := r.Counter("oc.hits")
	hits.Add(7)

	var misp Counter
	r.RegisterCounter("bpu.tage.mispredicts", &misp)
	misp.Inc()

	r.RegisterGauge("oc.hit_rate", func() float64 { return 0.5 })

	m := NewSyncHistogram(10)
	m.Observe(2)
	m.Observe(4)
	r.RegisterMean("backend.rob.occ", m)

	h := NewHistogram(10, 20)
	h.Observe(5)
	h.Observe(15)
	h.Observe(99)
	r.RegisterHist("oc.entry.size", h)

	var d Distribution
	d.Observe(1)
	d.Observe(1)
	d.Observe(3)
	r.RegisterDist("oc.entries_per_pw", &d)

	snap := r.Snapshot()
	wantOrder := []string{
		"backend.rob.occ", "bpu.tage.mispredicts", "oc.entries_per_pw",
		"oc.entry.size", "oc.hit_rate", "oc.hits",
	}
	if len(snap.Samples) != len(wantOrder) {
		t.Fatalf("got %d samples, want %d", len(snap.Samples), len(wantOrder))
	}
	for i, want := range wantOrder {
		if snap.Samples[i].Path != want {
			t.Errorf("sample[%d] = %q, want %q (snapshot must be path-sorted)", i, snap.Samples[i].Path, want)
		}
	}

	if got := snap.Counter("oc.hits"); got != 7 {
		t.Errorf("Counter(oc.hits) = %d, want 7", got)
	}
	if got := snap.Counter("bpu.tage.mispredicts"); got != 1 {
		t.Errorf("Counter(bpu.tage.mispredicts) = %d, want 1", got)
	}
	if got := snap.Value("oc.hit_rate"); got != 0.5 {
		t.Errorf("Value(oc.hit_rate) = %v, want 0.5", got)
	}
	if got := snap.Value("backend.rob.occ"); got != 3 {
		t.Errorf("Value(backend.rob.occ) = %v, want 3", got)
	}
	if sm, ok := snap.Sample("backend.rob.occ"); !ok || sm.Count != 2 {
		t.Errorf("Sample(backend.rob.occ).Count = %d, want 2", sm.Count)
	}

	sm, ok := snap.Sample("oc.entry.size")
	if !ok {
		t.Fatal("histogram sample missing")
	}
	wantBuckets := []Bucket{{Le: 10, Count: 1}, {Le: 20, Count: 1}, {Le: math.MaxInt64, Count: 1}}
	if len(sm.Buckets) != len(wantBuckets) {
		t.Fatalf("hist buckets = %v", sm.Buckets)
	}
	for i, b := range wantBuckets {
		if sm.Buckets[i] != b {
			t.Errorf("hist bucket[%d] = %+v, want %+v", i, sm.Buckets[i], b)
		}
	}
	if got := snap.HistFraction("oc.entry.size", 0); got != 1.0/3 {
		t.Errorf("HistFraction = %v, want 1/3", got)
	}
	if got := snap.DistFraction("oc.entries_per_pw", 1); got != 2.0/3 {
		t.Errorf("DistFraction(1) = %v, want 2/3", got)
	}
	if got := snap.DistFraction("oc.entries_per_pw", 2); got != 0 {
		t.Errorf("DistFraction(2) = %v, want 0", got)
	}

	// Snapshot is a copy: later increments must not leak in.
	hits.Add(100)
	if got := snap.Counter("oc.hits"); got != 7 {
		t.Errorf("snapshot mutated by live counter: %d", got)
	}
}

func TestRegistryScopeNesting(t *testing.T) {
	r := NewRegistry()
	bpu := r.Scope("bpu")
	tage := bpu.Scope("tage")
	c := tage.Counter("lookups")
	c.Add(3)
	var h Counter
	bpu.RegisterCounter("mispredicts", &h)
	bpu.RegisterGauge("accuracy", func() float64 { return 1 })
	snap := r.Snapshot()
	if got := snap.Counter("bpu.tage.lookups"); got != 3 {
		t.Errorf("scoped counter = %d, want 3", got)
	}
	if got := snap.Value("bpu.accuracy"); got != 1 {
		t.Errorf("scoped gauge = %v, want 1", got)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("x")
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(42)
	h := NewHistogram(1, 2)
	h.Observe(1)
	r.RegisterHist("a.h", h)

	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if got := back.Counter("a.b"); got != 42 {
		t.Errorf("round-tripped counter = %d, want 42", got)
	}
}

func TestSnapshotPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("oc.hits").Add(5)
	r.RegisterGauge("oc.hit_rate", func() float64 { return 0.25 })
	m := NewSyncHistogram(10)
	for range 4 {
		m.Observe(2)
	}
	r.RegisterMean("rob.occ", m)
	h := NewHistogram(10, 20)
	h.Observe(5)
	h.Observe(15)
	h.Observe(30)
	r.RegisterHist("entry.size", h)
	var d Distribution
	d.Observe(2)
	r.RegisterDist("entries_per_pw", &d)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf, "uopsim"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE uopsim_oc_hits counter",
		"uopsim_oc_hits 5",
		"uopsim_oc_hit_rate 0.25",
		"uopsim_rob_occ_sum 8",
		"uopsim_rob_occ_count 4",
		"# TYPE uopsim_entry_size histogram",
		`uopsim_entry_size_bucket{le="10"} 1`,
		`uopsim_entry_size_bucket{le="20"} 2`,
		`uopsim_entry_size_bucket{le="+Inf"} 3`,
		"uopsim_entry_size_count 3",
		`uopsim_entries_per_pw{key="2"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n---\n%s", want, out)
		}
	}
}

// TestHistogramQuantiles pins P50/P95/P99 on known distributions, including
// the bucket-edge cases the interpolation must get exactly right.
func TestHistogramQuantiles(t *testing.T) {
	tests := []struct {
		name    string
		bounds  []int
		samples []int
		q       float64
		want    float64
	}{
		// 100 samples uniform in one bucket (0,10]: rank 50 → midpoint.
		{"uniform-p50", []int{10}, rep(1, 100), 0.50, 5},
		{"uniform-p95", []int{10}, rep(1, 100), 0.95, 9.5},
		{"uniform-p99", []int{10}, rep(1, 100), 0.99, 9.9},
		// Exactly half the mass in (0,10], half in (10,20]: P50 rank lands
		// on the boundary and must return the bucket edge, 10, exactly.
		{"edge-p50", []int{10, 20}, append(rep(5, 50), rep(15, 50)...), 0.50, 10},
		// All mass at the boundary bucket: every quantile interpolates
		// within (10,20].
		{"second-bucket-p50", []int{10, 20}, rep(15, 100), 0.50, 15},
		{"second-bucket-p95", []int{10, 20}, rep(15, 100), 0.95, 19.5},
		// 90/10 split across (0,10] and (10,20]: P95 is halfway through the
		// second bucket's 10 samples → rank 95, frac 0.5 → 15.
		{"split-p95", []int{10, 20}, append(rep(5, 90), rep(15, 10)...), 0.95, 15},
		{"split-p99", []int{10, 20}, append(rep(5, 90), rep(15, 10)...), 0.99, 19},
		// q=1 on the edge case returns the top bound exactly.
		{"edge-p100", []int{10, 20}, append(rep(5, 50), rep(15, 50)...), 1.0, 20},
		// Overflow samples clamp to the last finite bound.
		{"overflow-p99", []int{10}, rep(99, 100), 0.99, 10},
		// q=0 returns the lower edge of the first occupied bucket.
		{"p0", []int{10, 20}, rep(15, 4), 0.0, 10},
		// Empty histogram.
		{"empty", []int{10}, nil, 0.5, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(tc.bounds...)
			for _, x := range tc.samples {
				h.Observe(x)
			}
			if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

// rep returns n copies of x.
func rep(x, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = x
	}
	return out
}

// TestFamilyExposition: a counter family exports one TYPE line over its
// labelled series, sorted by label, with label values quoted.
func TestFamilyExposition(t *testing.T) {
	r := NewRegistry()
	var sampled, full Counter
	var node AtomicCounter
	modes := r.Family("simulations_total", "mode")
	modes.RegisterCounter("sampled", &sampled)
	modes.RegisterCounter("full", &full)
	r.Family("node_requests_total", "node").RegisterCounter("http://127.0.0.1:8091", &node)
	r.Counter("server.completed").Add(3)
	sampled.Add(2)
	full.Inc()
	node.Add(4)

	snap := r.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf, "uopsimd"); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE uopsimd_node_requests_total counter
uopsimd_node_requests_total{node="http://127.0.0.1:8091"} 4
# TYPE uopsimd_server_completed counter
uopsimd_server_completed 3
# TYPE uopsimd_simulations_total counter
uopsimd_simulations_total{mode="full"} 1
uopsimd_simulations_total{mode="sampled"} 2
`
	if got := buf.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestFamilyReservesPath: a family's name collides with a plain
// registration or a second family exactly as two plain paths do, and so
// does a repeated label value.
func TestFamilyReservesPath(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	r := NewRegistry()
	f := r.Family("x", "mode")
	f.RegisterCounter("a", &Counter{})
	mustPanic("plain path over a family", func() { r.Counter("x") })
	mustPanic("second family", func() { r.Family("x", "node") })
	mustPanic("repeated label value", func() { f.RegisterCounter("a", &Counter{}) })
	r.Counter("y")
	mustPanic("family over a plain path", func() { r.Family("y", "mode") })
}

// TestConcurrentInstruments drives AtomicCounter, a counter family and
// SyncHistogram from many goroutines while others snapshot and render
// Prometheus text; run under -race. Final totals must be exact.
func TestConcurrentInstruments(t *testing.T) {
	const writers, perWriter = 8, 2000
	r := NewRegistry()
	var hits AtomicCounter
	var modes [2]AtomicCounter
	lat := NewSyncHistogram(1, 10, 100)
	r.RegisterCounter("hits", &hits)
	fam := r.Family("sims_total", "mode")
	fam.RegisterCounter("full", &modes[0])
	fam.RegisterCounter("sampled", &modes[1])
	r.RegisterHist("lat", lat)
	r.RegisterMean("lat_mean", lat)

	stop := make(chan struct{})
	var readers, wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				if err := snap.WritePrometheus(io.Discard, "t"); err != nil {
					t.Error(err)
					return
				}
				if h, m := snap.Counter("lat"), snap.Counter("lat_mean"); m < h {
					t.Errorf("mean read %d samples after the histogram read %d", m, h)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				hits.Inc()
				modes[i%2].Add(2)
				lat.Observe(w)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	snap := r.Snapshot()
	total := uint64(writers * perWriter)
	if got := snap.Counter("hits"); got != total {
		t.Errorf("hits = %d, want %d", got, total)
	}
	if got := modes[0].Value() + modes[1].Value(); got != 2*total {
		t.Errorf("family sum = %d, want %d", got, 2*total)
	}
	if got := snap.Counter("lat"); got != total {
		t.Errorf("histogram total = %d, want %d", got, total)
	}
	// Writers observe 0..7, perWriter times each: mean 3.5.
	if got := snap.Value("lat_mean"); got != 3.5 {
		t.Errorf("mean = %v, want 3.5", got)
	}
	if got := lat.Mean(); got != 3.5 {
		t.Errorf("Mean() = %v, want 3.5", got)
	}
}
