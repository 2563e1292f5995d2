package experiments

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"uopsim/internal/runcache"
	"uopsim/internal/surrogate"
	"uopsim/internal/warehouse"
)

// TestSurrogateTrainsFromWarehouse: a model trained by NewStoreSurrogate
// serves stored points exactly and interpolates between them.
func TestSurrogateTrainsFromWarehouse(t *testing.T) {
	p, ws := warehouseParams(t)
	sc := Schemes(2)[0]
	for _, capacity := range []int{1024, 2048, 4096} {
		if _, err := runOne(p, "bm_ds", sc, capacity); err != nil {
			t.Fatal(err)
		}
	}
	m, skipped, err := NewStoreSurrogate(ws, surrogate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || m.Len() != 3 {
		t.Fatalf("trained on %d points (skipped %d), want 3/0", m.Len(), skipped)
	}

	// A stored point must be an exact, confidence-1 hit whose upc matches
	// the simulation bit-for-bit.
	r, err := runOne(p, "bm_ds", sc, 2048) // memo hit; no new record
	if err != nil {
		t.Fatal(err)
	}
	feat, err := FeaturesForPoint(Point{Workload: "bm_ds", Scheme: sc, Capacity: 2048}, p)
	if err != nil {
		t.Fatal(err)
	}
	pred, ok := m.Predict(feat)
	if !ok || !pred.Exact || pred.Confidence != 1 {
		t.Fatalf("stored point not exactly served: ok=%v %+v", ok, pred)
	}
	if pred.Metrics["upc"] != r.Metrics.UPC {
		t.Fatalf("exact upc %v != simulated %v", pred.Metrics["upc"], r.Metrics.UPC)
	}

	// An unseen capacity in the same partition must interpolate with
	// sub-unity confidence.
	feat, err = FeaturesForPoint(Point{Workload: "bm_ds", Scheme: sc, Capacity: 3072}, p)
	if err != nil {
		t.Fatal(err)
	}
	pred, ok = m.Predict(feat)
	if !ok || pred.Exact {
		t.Fatalf("unseen capacity should interpolate: ok=%v %+v", ok, pred)
	}
	if pred.Confidence <= 0 || pred.Confidence >= 1 {
		t.Fatalf("interpolated confidence out of (0,1): %v", pred.Confidence)
	}
}

// surrogateBlobs builds n decodable warehouse records from one real
// simulation result, varying the capacity feature and the stored UPC so
// each record is a distinguishable training point.
func surrogateBlobs(t *testing.T, n int) (base PointResult, feats []runcache.Features, blobs [][]byte) {
	t.Helper()
	p := tinyParams()
	base, err := point(p, "bm_ds", Schemes(2)[0].Configure(2048))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		pr := base
		pr.Metrics.UPC = 1 + float64(i)/100
		b, err := json.Marshal(pr)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
		feats = append(feats, runcache.Features{
			{Key: "workload", Value: "bm_ds"},
			{Key: "config.capacity", Value: fmt.Sprint(1024 + 64*i)},
		})
	}
	return base, feats, blobs
}

func evFP(i int) runcache.Fingerprint {
	return runcache.Fingerprint(fmt.Sprintf("%064d", i))
}

// TestSurrogateWarehouseEvictTracksLiveSet: eviction victims must leave
// the model — no stale k-d tree points, no stale exact-match entries — so
// the model's corpus always mirrors the warehouse's live set.
func TestSurrogateWarehouseEvictTracksLiveSet(t *testing.T) {
	_, feats, blobs := surrogateBlobs(t, 40)
	// Size the budget so a few records fit and the rest evict.
	ws, err := warehouse.Open(t.TempDir(), warehouse.Options{
		MaxBytes:        8 * int64(len(blobs[0])),
		CompactFraction: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	m, _, err := NewStoreSurrogate(ws, surrogate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	AttachSurrogate(ws, m)
	for i := range blobs {
		if err := ws.Put(evFP(i), feats[i], blobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if ws.Stats().Evictions == 0 {
		t.Fatal("test needs evictions to mean anything")
	}
	if got, want := m.Len(), ws.Len(); got != want {
		t.Fatalf("model corpus %d != warehouse live set %d", got, want)
	}
	// Every evicted record must not be exactly servable; every surviving
	// record must be.
	live := map[runcache.Fingerprint]bool{}
	if err := ws.Iter(func(r warehouse.Record) error {
		live[r.Fingerprint] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range blobs {
		pred, ok := m.Predict(feats[i])
		exact := ok && pred.Exact
		if live[evFP(i)] && !exact {
			t.Fatalf("live record %d not exactly servable", i)
		}
		if !live[evFP(i)] && exact {
			t.Fatalf("evicted record %d still exactly servable (stale point)", i)
		}
	}
}

// TestSurrogateCompactConcurrentWithPredicts: compaction moves bytes but
// never changes the live set, so it must fire no model events; concurrent
// puts, predicts, and an explicit Compact must leave the model mirroring
// the store (this is the retrain-on-compaction surface the race detector
// watches in CI's warehouse job).
func TestSurrogateCompactConcurrentWithPredicts(t *testing.T) {
	_, feats, blobs := surrogateBlobs(t, 60)
	ws, err := warehouse.Open(t.TempDir(), warehouse.Options{CompactFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	m, _, err := NewStoreSurrogate(ws, surrogate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	AttachSurrogate(ws, m)

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := range blobs {
			if err := ws.Put(evFP(i), feats[i], blobs[i]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			m.Predict(feats[i%len(feats)])
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := ws.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// Delete half the records; compact again; the model must track.
	for i := 0; i < len(blobs); i += 2 {
		if err := ws.Delete(evFP(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Len(), ws.Len(); got != want {
		t.Fatalf("after deletes+compact: model corpus %d != warehouse live set %d", got, want)
	}
	for i := range blobs {
		pred, ok := m.Predict(feats[i])
		exact := ok && pred.Exact
		if i%2 == 0 && exact {
			t.Fatalf("deleted record %d survived compaction in the model", i)
		}
		if i%2 == 1 && !exact {
			t.Fatalf("live record %d lost to compaction in the model", i)
		}
	}
}

// TestEstimateTierAllocBounds bounds what the estimate tier allocates per
// query before any HTTP work: building the request's feature vector (one
// encoding buffer, one string, one pair slice, the head pairs and two run
// lengths; 107 objects when every key was concatenated and the slice grew
// by doubling) and one interpolating Predict over the real vectors of
// every scheme (38 objects when each query built canonical strings and a
// map of its numeric features).
func TestEstimateTierAllocBounds(t *testing.T) {
	req := PointRequest{Workload: "bm_cc", Scheme: "F-PWAC", Capacity: 8192,
		Warmup: goldenWarmup, Measure: goldenMeasure}.WithDefaults()
	if n := testing.AllocsPerRun(50, func() { _, _ = req.Features() }); n > 8 {
		t.Fatalf("PointRequest.Features allocates %.0f times, want <= 8", n)
	}

	p := Params{WarmupInsts: goldenWarmup, MeasureInsts: goldenMeasure}
	var pts []surrogate.Point
	for i, sc := range Schemes(2) {
		for _, c := range []int{1024, 2048, 4096} {
			feat, err := FeaturesForPoint(Point{Workload: "bm_cc", Scheme: sc, Capacity: c}, p)
			if err != nil {
				t.Fatal(err)
			}
			metrics := make(map[string]float64, len(derivedMetrics))
			for name := range derivedMetrics {
				metrics[name] = float64(i*c + len(name))
			}
			pts = append(pts, surrogate.Point{Fingerprint: runcache.Fingerprint(fmt.Sprint(sc.Name, c)), Features: feat, Metrics: metrics})
		}
	}
	m := surrogate.New(surrogate.Options{})
	m.Fit(pts)
	feat, err := req.Features()
	if err != nil {
		t.Fatal(err)
	}
	if pred, ok := m.Predict(feat); !ok || pred.Exact {
		t.Fatalf("the query should interpolate: ok=%v %+v", ok, pred)
	}
	if n := testing.AllocsPerRun(50, func() { _, _ = m.Predict(feat) }); n > 8 {
		t.Fatalf("Model.Predict allocates %.0f times, want <= 8", n)
	}
}
