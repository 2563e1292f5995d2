package runcache

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
)

type payload struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func TestEngineMemoizesCompute(t *testing.T) {
	e := New[payload]()
	calls := 0
	compute := func() (payload, error) {
		calls++
		return payload{N: 42, S: "x"}, nil
	}
	a, _, err := e.DoLazy("fp1", nil, compute)
	if err != nil || a.N != 42 {
		t.Fatalf("first DoLazy = %+v, %v", a, err)
	}
	b, _, err := e.DoLazy("fp1", nil, compute)
	if err != nil || b != a {
		t.Fatalf("memoized DoLazy = %+v, %v (want %+v)", b, err, a)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	st := e.Stats()
	if st.Submitted != 2 || st.Unique != 1 || st.MemoHits != 1 || st.Simulated != 1 {
		t.Errorf("stats = %+v", st)
	}
	if _, _, err := e.DoLazy("fp2", nil, compute); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Unique != 2 || st.Simulated != 2 {
		t.Errorf("second fingerprint not simulated: %+v", st)
	}
}

// TestEngineMemoizesErrors: a deterministic simulator fails a point the same
// way every time, so the engine must not re-run a failed compute for each
// duplicate submission.
func TestEngineMemoizesErrors(t *testing.T) {
	e := New[payload]()
	calls := 0
	boom := errors.New("boom")
	compute := func() (payload, error) { calls++; return payload{}, boom }
	if _, _, err := e.DoLazy("fp", nil, compute); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := e.DoLazy("fp", nil, compute); !errors.Is(err, boom) {
		t.Fatalf("memoized err = %v", err)
	}
	if calls != 1 {
		t.Errorf("failed compute ran %d times, want 1", calls)
	}
}

// TestEngineSingleflight: concurrent submitters of one fingerprint share a
// single compute; late submitters block until it completes.
func TestEngineSingleflight(t *testing.T) {
	e := New[payload]()
	var mu sync.Mutex
	calls := 0
	release := make(chan struct{})
	compute := func() (payload, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		<-release
		return payload{N: 7}, nil
	}
	const goroutines = 8
	var wg sync.WaitGroup
	results := make([]payload, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, _ = e.DoLazy("shared", nil, compute)
		}(i)
	}
	for e.Stats().Submitted < goroutines {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Errorf("compute ran %d times under contention, want 1", calls)
	}
	for i, r := range results {
		if r.N != 7 {
			t.Errorf("goroutine %d got %+v", i, r)
		}
	}
	st := e.Stats()
	if st.Submitted != goroutines || st.Unique != 1 || st.MemoHits != goroutines-1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineDiskRoundTrip(t *testing.T) {
	store := newRecordingStore()
	e1 := New[payload]()
	e1.SetStore(store)
	want := payload{N: 9, S: "persisted"}
	if _, _, err := e1.DoLazy("fp", nil, func() (payload, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	if st := e1.Stats(); st.Simulated != 1 || st.DiskWrites != 1 {
		t.Fatalf("writer stats = %+v", st)
	}

	// A second process (fresh engine, same store) must load, not
	// recompute.
	e2 := New[payload]()
	e2.SetStore(store)
	got, _, err := e2.DoLazy("fp", nil, func() (payload, error) {
		t.Error("compute ran despite a valid disk blob")
		return payload{}, nil
	})
	if err != nil || got != want {
		t.Fatalf("disk load = %+v, %v (want %+v)", got, err, want)
	}
	if st := e2.Stats(); st.DiskHits != 1 || st.Simulated != 0 {
		t.Errorf("reader stats = %+v", st)
	}
}

func TestEngineCorruptBlobResimulated(t *testing.T) {
	store := newRecordingStore()
	store.blobs["fp"] = []byte("{not json")
	e := New[payload]()
	e.SetStore(store)
	want := payload{N: 3}
	got, _, err := e.DoLazy("fp", nil, func() (payload, error) { return want, nil })
	if err != nil || got != want {
		t.Fatalf("DoLazy = %+v, %v", got, err)
	}
	st := e.Stats()
	if st.BadBlobs != 1 || st.Simulated != 1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v", st)
	}
	// The corrupt blob must have been overwritten with the fresh result.
	if st.DiskWrites != 1 {
		t.Errorf("fresh result not persisted over the corrupt blob: %+v", st)
	}
	blob, ok := store.Load("fp")
	if !ok || !strings.Contains(string(blob), `"n":3`) {
		t.Errorf("blob after repair = %q", blob)
	}
}

// TestEngineValidateRejectsBlob: a blob that parses but fails the semantic
// check is corruption too — never trusted, always re-simulated.
func TestEngineValidateRejectsBlob(t *testing.T) {
	store := newRecordingStore()
	store.blobs["fp"] = []byte(`{"n":0,"s":""}`)
	e := New[payload]()
	e.SetStore(store)
	e.SetValidate(func(p payload) error {
		if p.N == 0 {
			return errors.New("zero payload")
		}
		return nil
	})
	got, _, err := e.DoLazy("fp", nil, func() (payload, error) { return payload{N: 5}, nil })
	if err != nil || got.N != 5 {
		t.Fatalf("DoLazy = %+v, %v", got, err)
	}
	if st := e.Stats(); st.BadBlobs != 1 || st.Simulated != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineVerifyPassesOnHonestBlob(t *testing.T) {
	store := newRecordingStore()
	e1 := New[payload]()
	e1.SetStore(store)
	want := payload{N: 11, S: "v"}
	if _, _, err := e1.DoLazy("fp", nil, func() (payload, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	e2 := New[payload]()
	e2.SetStore(store)
	e2.SetVerifyEvery(1)
	got, _, err := e2.DoLazy("fp", nil, func() (payload, error) { return want, nil })
	if err != nil || got != want {
		t.Fatalf("verified DoLazy = %+v, %v", got, err)
	}
	if st := e2.Stats(); st.Verified != 1 || st.VerifyFailed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineVerifyDetectsTamperedBlob(t *testing.T) {
	store := newRecordingStore()
	// A blob that decodes and validates but does not match what the
	// simulator produces — a stale cache after a code change that forgot
	// the SimVersion bump, or silent bit rot.
	store.blobs["fp"] = []byte(`{"n":999,"s":"stale"}`)
	e := New[payload]()
	e.SetStore(store)
	e.SetVerifyEvery(1)
	_, _, err := e.DoLazy("fp", nil, func() (payload, error) { return payload{N: 1, S: "fresh"}, nil })
	if err == nil {
		t.Fatal("tampered blob must fail verification")
	}
	if !strings.Contains(err.Error(), store.Location("fp")) {
		t.Errorf("error should name the stale blob, got: %v", err)
	}
	if st := e.Stats(); st.VerifyFailed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestEngineVerifyEverySamples: only every n-th disk hit is re-simulated.
func TestEngineVerifyEverySamples(t *testing.T) {
	store := newRecordingStore()
	e1 := New[payload]()
	e1.SetStore(store)
	for _, fp := range []Fingerprint{"a", "b", "c", "d"} {
		fp := fp
		if _, _, err := e1.DoLazy(fp, nil, func() (payload, error) { return payload{N: 1, S: string(fp)}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	e2 := New[payload]()
	e2.SetStore(store)
	e2.SetVerifyEvery(2)
	for _, fp := range []Fingerprint{"a", "b", "c", "d"} {
		fp := fp
		if _, _, err := e2.DoLazy(fp, nil, func() (payload, error) { return payload{N: 1, S: string(fp)}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := e2.Stats()
	if st.Verified != 2 || st.DiskHits != 2 {
		t.Errorf("verify-every-2 over 4 hits: %+v", st)
	}
}

func TestStatsSummary(t *testing.T) {
	s := Stats{Submitted: 10, Unique: 4, MemoHits: 6, Simulated: 3, DiskHits: 1}
	if got := s.DedupeFactor(); got != 2.5 {
		t.Errorf("DedupeFactor = %v, want 2.5", got)
	}
	if (Stats{}).DedupeFactor() != 1 {
		t.Error("empty stats should report dedupe 1x")
	}
	str := s.String()
	for _, want := range []string{"submitted=10", "unique=4", "simulated=3", "dedupe=2.50x"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() missing %q: %s", want, str)
		}
	}
}

// TestDoResolved reports how each submission was satisfied: a fresh
// fingerprint computes, a repeat is a memo hit, and a fresh engine over the
// same store answers from disk.
func TestDoResolved(t *testing.T) {
	store := newRecordingStore()
	e1 := New[payload]()
	e1.SetStore(store)
	compute := func() (payload, error) { return payload{N: 7}, nil }

	if _, how, err := e1.DoLazy("fp", nil, compute); err != nil || how != ResolvedCompute {
		t.Fatalf("first DoLazy = (%s, %v), want simulated", how, err)
	}
	if _, how, err := e1.DoLazy("fp", nil, compute); err != nil || how != ResolvedMemo {
		t.Fatalf("repeat DoLazy = (%s, %v), want memo", how, err)
	}

	e2 := New[payload]()
	e2.SetStore(store)
	if _, how, err := e2.DoLazy("fp", nil, compute); err != nil || how != ResolvedDisk {
		t.Fatalf("fresh-engine DoLazy = (%s, %v), want disk", how, err)
	}
	// The disk-loaded entry memoizes like any other.
	if _, how, err := e2.DoLazy("fp", nil, compute); err != nil || how != ResolvedMemo {
		t.Fatalf("post-disk DoLazy = (%s, %v), want memo", how, err)
	}
}

// TestResolutionStrings pins the wire labels /v1/simulate reports.
func TestResolutionStrings(t *testing.T) {
	for res, want := range map[Resolution]string{
		ResolvedCompute: "simulated",
		ResolvedMemo:    "memo",
		ResolvedDisk:    "disk",
	} {
		if got := res.String(); got != want {
			t.Errorf("Resolution(%d).String() = %q, want %q", res, got, want)
		}
	}
}

// TestStatsSnapshot checks the registry bridge: every engine counter is
// published under the runcache scope with its JSON-tag name, and the
// dedupe factor derives from them.
func TestStatsSnapshot(t *testing.T) {
	e := New[payload]()
	compute := func() (payload, error) { return payload{N: 1}, nil }
	for i := 0; i < 3; i++ {
		if _, _, err := e.DoLazy("fp", nil, compute); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.StatsSnapshot()
	vals := map[string]float64{}
	for _, s := range snap.Samples {
		vals[s.Path] = s.Value
	}
	for path, want := range map[string]float64{
		"runcache.submitted":     3,
		"runcache.unique":        1,
		"runcache.memo_hits":     2,
		"runcache.simulated":     1,
		"runcache.disk_hits":     0,
		"runcache.dedupe_factor": 3,
	} {
		got, ok := vals[path]
		if !ok {
			t.Errorf("snapshot missing %s (have %v)", path, vals)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", path, got, want)
		}
	}
}

// TestLookupCompletedOnly: Lookup answers only completed, successful
// entries, never blocks on one in flight, and counts a hit exactly as a
// memo-joining DoLazy would.
func TestLookupCompletedOnly(t *testing.T) {
	e := New[payload]()
	if _, ok := e.Lookup("absent"); ok {
		t.Fatal("Lookup hit an unknown fingerprint")
	}
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.DoLazy("slow", nil, func() (payload, error) { <-release; return payload{N: 3}, nil })
	}()
	for e.Stats().Submitted < 1 {
		runtime.Gosched()
	}
	if _, ok := e.Lookup("slow"); ok {
		t.Fatal("Lookup answered an entry still in flight")
	}
	close(release)
	<-done
	before := e.Stats()
	v, ok := e.Lookup("slow")
	if !ok || v.N != 3 {
		t.Fatalf("Lookup of a completed entry = %+v, %v", v, ok)
	}
	after := e.Stats()
	if after.Submitted != before.Submitted+1 || after.MemoHits != before.MemoHits+1 || after.Unique != before.Unique {
		t.Fatalf("Lookup hit counted %+v -> %+v, want one submission and one memo hit", before, after)
	}

	boom := errors.New("boom")
	e.DoLazy("bad", nil, func() (payload, error) { return payload{}, boom })
	before = e.Stats()
	if _, ok := e.Lookup("bad"); ok {
		t.Fatal("Lookup answered an entry that resolved to an error")
	}
	if e.Stats() != before {
		t.Fatal("a Lookup miss moved the counters")
	}
}

// TestDoLazyBuildsFeaturesOnlyToStore: the feature vector is built once,
// for the simulation that stores a blob, and never for memo or disk hits.
func TestDoLazyBuildsFeaturesOnlyToStore(t *testing.T) {
	store := newRecordingStore()
	e := New[payload]()
	e.SetStore(store)
	builds := 0
	feats := func() (Features, error) {
		builds++
		return Features{{Key: "k", Value: "v"}}, nil
	}
	compute := func() (payload, error) { return payload{N: 1}, nil }
	for i := 0; i < 3; i++ {
		if _, _, err := e.DoLazy("fp", feats, compute); err != nil {
			t.Fatal(err)
		}
	}
	if builds != 1 || store.puts != 1 {
		t.Fatalf("features built %d times for %d puts, want 1 and 1", builds, store.puts)
	}
	if v, ok := store.putFeat.Get("k"); !ok || v != "v" {
		t.Fatalf("stored features %v, want k=v", store.putFeat)
	}
	fresh := New[payload]()
	fresh.SetStore(store)
	if _, how, err := fresh.DoLazy("fp", feats, compute); err != nil || how != ResolvedDisk {
		t.Fatalf("disk hit = %v, %v", how, err)
	}
	if builds != 1 {
		t.Fatalf("a disk hit built features (%d builds)", builds)
	}
}

// TestDoLazyFeatureErrorStoresNothing: a feature-build failure fails the
// point and leaves the store untouched.
func TestDoLazyFeatureErrorStoresNothing(t *testing.T) {
	store := newRecordingStore()
	e := New[payload]()
	e.SetStore(store)
	boom := errors.New("no features")
	_, _, err := e.DoLazy("fp", func() (Features, error) { return nil, boom },
		func() (payload, error) { return payload{N: 1}, nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the feature error", err)
	}
	if store.puts != 0 || len(store.blobs) != 0 {
		t.Fatalf("store took %d puts after a feature error", store.puts)
	}
}
