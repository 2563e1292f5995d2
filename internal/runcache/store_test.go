package runcache

import (
	"errors"
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
	got, _, err := e.DoLazy("fp", nil, func() (payload, error) { return want, nil })
	if err != nil || got != want {
		t.Fatalf("DoLazy = %+v, %v", got, err)
	}
	if st := e.Stats(); st.BadBlobs != 1 || st.Simulated != 1 {
		t.Fatalf("first-run stats = %+v", st)
	}
	if store.quarantined != 1 {
		t.Fatalf("corrupt blob quarantined %d times, want 1", store.quarantined)
	}

	e2 := New[payload]()
	e2.SetStore(store)
	got2, _, err := e2.DoLazy("fp", nil, func() (payload, error) {
		t.Fatal("re-simulated a point the repaired blob should serve")
		return payload{}, nil
	})
	if err != nil || got2 != want {
		t.Fatalf("second-run DoLazy = %+v, %v", got2, err)
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

// TestPeerLoadOnStoreMiss: a local miss asks the peer hook before
// compute. A valid peer blob is stored verbatim with the lazily built
// features and counts as a disk hit and a peer hit; an invalid one counts
// as bad, is not stored, and the point is simulated.
func TestPeerLoadOnStoreMiss(t *testing.T) {
	rec := newRecordingStore()
	e := New[payload]()
	e.SetStore(rec)
	e.SetValidate(func(p payload) error {
		if p.N == 0 {
			return errors.New("empty")
		}
		return nil
	})
	peer := map[Fingerprint][]byte{"good": []byte(`{"n":5,"s":"peer"}`), "bad": []byte(`{"n":0}`)}
	e.SetPeerLoad(func(fp Fingerprint) ([]byte, bool) {
		b, ok := peer[fp]
		return b, ok
	})
	feat := func() (Features, error) { return Features{{Key: "workload", Value: "bm_cc"}}, nil }
	computes := 0
	compute := func() (payload, error) { computes++; return payload{N: 9}, nil }

	v, how, err := e.DoLazy("good", feat, compute)
	if err != nil || how != ResolvedDisk || v.S != "peer" {
		t.Fatalf("peer-held point = %+v, %s, %v; want the peer's value from disk", v, how, err)
	}
	if string(rec.blobs["good"]) != string(peer["good"]) || len(rec.putFeat) != 1 {
		t.Fatalf("peer blob stored as %q with features %v, want it verbatim with features", rec.blobs["good"], rec.putFeat)
	}
	if v, how, err = e.DoLazy("bad", feat, compute); err != nil || how != ResolvedCompute || v.N != 9 {
		t.Fatalf("point behind a bad peer blob = %+v, %s, %v; want simulated", v, how, err)
	}
	if _, _, err = e.DoLazy("none", feat, compute); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.DiskHits != 1 || st.PeerHits != 1 || st.BadBlobs != 1 || st.Simulated != 2 || computes != 2 {
		t.Fatalf("stats = %+v after %d computes, want 1 disk/peer hit, 1 bad blob, 2 simulations", st, computes)
	}
	if rec.puts != 3 {
		t.Fatalf("store saw %d puts, want the peer copy plus 2 simulations", rec.puts)
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
