package runcache

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestEngineQuarantinesCorruptBlob: the miss on a corrupt blob is paid
// exactly once. The first engine decodes garbage, counts a BadBlob,
// quarantines, re-simulates, and re-persists; a second engine (a fresh
// process, same store) sees a clean disk hit, not the corruption again.
func TestEngineQuarantinesCorruptBlob(t *testing.T) {
	store := newRecordingStore()
	store.blobs["fp"] = []byte("{not json")
	e := New[payload]()
	e.SetStore(store)
	want := payload{N: 7, S: "fresh"}
	got, err := e.Do("fp", func() (payload, error) { return want, nil })
	if err != nil || got != want {
		t.Fatalf("Do = %+v, %v", got, err)
	}
	if st := e.Stats(); st.BadBlobs != 1 || st.Simulated != 1 {
		t.Fatalf("first-run stats = %+v", st)
	}
	if store.quarantined != 1 {
		t.Fatalf("corrupt blob quarantined %d times, want 1", store.quarantined)
	}

	e2 := New[payload]()
	e2.SetStore(store)
	got2, err := e2.Do("fp", func() (payload, error) {
		t.Fatal("re-simulated a point the repaired blob should serve")
		return payload{}, nil
	})
	if err != nil || got2 != want {
		t.Fatalf("second-run Do = %+v, %v", got2, err)
	}
	if st := e2.Stats(); st.DiskHits != 1 || st.BadBlobs != 0 {
		t.Fatalf("second-run stats = %+v", st)
	}
	if store.quarantined != 1 {
		t.Fatalf("repaired blob quarantined again: %d quarantines", store.quarantined)
	}
}

// TestDoFeaturedThreadsFeatures: features submitted with a point reach the
// store's Put, and re-submissions (memo hits) do not re-store.
func TestDoFeaturedThreadsFeatures(t *testing.T) {
	rec := newRecordingStore()
	e := New[payload]()
	e.SetStore(rec)
	feat := Features{{Key: "workload", Value: "bm_cc"}}
	if _, _, err := e.DoFeatured("fp", feat, func() (payload, error) {
		return payload{N: 1}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rec.putFeat) != 1 || rec.putFeat[0].Key != "workload" {
		t.Fatalf("store saw features %v", rec.putFeat)
	}
	if _, _, err := e.DoFeatured("fp", feat, func() (payload, error) {
		return payload{N: 2}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if rec.puts != 1 {
		t.Fatalf("memoized resubmission re-stored: %d puts", rec.puts)
	}
}

// recordingStore is an in-memory Store that remembers what Put received.
// Tests share one between two engines to model a fresh process over the
// same store, and seed corrupt bytes directly into blobs.
type recordingStore struct {
	blobs       map[Fingerprint][]byte
	putFeat     Features
	puts        int
	quarantined int
}

func newRecordingStore() *recordingStore {
	return &recordingStore{blobs: map[Fingerprint][]byte{}}
}

func (r *recordingStore) Load(fp Fingerprint) ([]byte, bool) {
	b, ok := r.blobs[fp]
	return b, ok
}

func (r *recordingStore) Put(fp Fingerprint, feat Features, blob []byte) error {
	r.blobs[fp] = blob
	r.putFeat = feat
	r.puts++
	return nil
}

func (r *recordingStore) Location(fp Fingerprint) string { return "test store " + string(fp) }

func (r *recordingStore) Quarantine(fp Fingerprint) error {
	delete(r.blobs, fp)
	r.quarantined++
	return nil
}

// TestFeaturesGet covers the lookup helper.
func TestFeaturesGet(t *testing.T) {
	f := Features{{Key: "a", Value: "1"}, {Key: "b", Value: "2"}}
	if v, ok := f.Get("b"); !ok || v != "2" {
		t.Fatalf("Get(b) = %q, %v", v, ok)
	}
	if _, ok := f.Get("c"); ok {
		t.Fatal("Get(c) found a missing key")
	}
}

// TestAppendFeatures covers the reflection flattening: scalar kinds,
// nesting, pointers, slices, and the rejected kinds shared with canon.go.
func TestAppendFeatures(t *testing.T) {
	type inner struct {
		Depth int
	}
	type cfg struct {
		Name    string
		Size    uint64
		Ratio   float64
		On      bool
		Nested  inner
		Ptr     *inner
		NilPtr  *inner
		Weights []int
	}
	v := cfg{
		Name: "x", Size: 2048, Ratio: 0.5, On: true,
		Nested: inner{Depth: 3}, Ptr: &inner{Depth: 4}, Weights: []int{7, 8},
	}
	got, err := AppendFeatures(nil, "config", v)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"config.name":         "x",
		"config.size":         "2048",
		"config.ratio":        "0.5",
		"config.on":           "true",
		"config.nested.depth": "3",
		"config.ptr.depth":    "4",
		"config.weights.0":    "7",
		"config.weights.1":    "8",
	}
	if len(got) != len(want) {
		t.Fatalf("flattened %d features, want %d: %v", len(got), len(want), got)
	}
	for k, w := range want {
		if v, ok := got.Get(k); !ok || v != w {
			t.Errorf("feature %s = %q, %v; want %q", k, v, ok, w)
		}
	}

	type bad struct {
		M map[string]int
	}
	if _, err := AppendFeatures(nil, "config", bad{}); err == nil {
		t.Fatal("map field flattened without error")
	} else if !strings.Contains(err.Error(), "config.m") {
		t.Fatalf("error does not name the offending path: %v", err)
	}
}

// TestSyncDir sanity-checks the shared directory-durability helper.
func TestSyncDir(t *testing.T) {
	if err := SyncDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := SyncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("syncing a missing directory should fail")
	}
}
