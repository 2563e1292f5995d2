package warehouse

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"uopsim/internal/runcache"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func fpN(i int) runcache.Fingerprint {
	return runcache.Fingerprint(fmt.Sprintf("%064d", i))
}

func TestPutLoadRoundtrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	feat := runcache.Features{{Key: "workload", Value: "bm_cc"}, {Key: "config.uopcache.capacityuops", Value: "2048"}}
	blob := []byte(`{"upc":2.5}`)
	if err := s.Put(fpN(1), feat, blob); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(fpN(1))
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("Load = %q, %v; want %q", got, ok, blob)
	}
	if _, ok := s.Load(fpN(2)); ok {
		t.Fatal("absent fingerprint loaded")
	}
	st := s.Stats()
	if st.Records != 1 || st.Puts != 1 || st.Loads != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	blobs := map[int][]byte{}
	for i := 0; i < 20; i++ {
		blobs[i] = []byte(fmt.Sprintf(`{"n":%d}`, i))
		if err := s.Put(fpN(i), runcache.Features{{Key: "n", Value: fmt.Sprint(i)}}, blobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Supersede a few and delete one; replay must apply last-wins.
	blobs[3] = []byte(`{"n":3,"v":2}`)
	if err := s.Put(fpN(3), nil, blobs[3]); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(fpN(7)); err != nil {
		t.Fatal(err)
	}
	delete(blobs, 7)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	if s2.Len() != len(blobs) {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), len(blobs))
	}
	for i, want := range blobs {
		got, ok := s2.Load(fpN(i))
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("fp %d: Load = %q, %v; want %q", i, got, ok, want)
		}
	}
	if _, ok := s2.Load(fpN(7)); ok {
		t.Fatal("deleted record resurrected by replay")
	}
	// Features survive the round trip.
	recs, err := s2.Select(Query{Where: map[string]string{"n": "5"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Fingerprint != fpN(5) {
		t.Fatalf("Select(n=5) = %v", recs)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 512})
	for i := 0; i < 30; i++ {
		if err := s.Put(fpN(i), nil, bytes.Repeat([]byte("x"), 100)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation past 512-byte segments, got %d segments", st.Segments)
	}
	for i := 0; i < 30; i++ {
		if _, ok := s.Load(fpN(i)); !ok {
			t.Fatalf("fp %d missing after rotation", i)
		}
	}
	s.Close()
	s2 := mustOpen(t, dir, Options{SegmentBytes: 512})
	if s2.Len() != 30 {
		t.Fatalf("reopen after rotation: Len = %d", s2.Len())
	}
}

func TestCompactReclaimsDeadBytes(t *testing.T) {
	dir := t.TempDir()
	// CompactFraction 1 disables the automatic trigger so the test drives
	// compaction explicitly.
	s := mustOpen(t, dir, Options{CompactFraction: 1})
	for i := 0; i < 10; i++ {
		if err := s.Put(fpN(i), runcache.Features{{Key: "n", Value: fmt.Sprint(i)}}, []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ { // supersede half
		if err := s.Put(fpN(i), runcache.Features{{Key: "n", Value: fmt.Sprint(i)}}, []byte(`{"v":2}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(fpN(9)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DeadBytes == 0 {
		t.Fatal("expected dead bytes before compaction")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DeadBytes != 0 || st.Compactions != 1 || st.Records != 9 {
		t.Fatalf("post-compaction stats = %+v", st)
	}
	for i := 0; i < 5; i++ {
		got, ok := s.Load(fpN(i))
		if !ok || !bytes.Equal(got, []byte(`{"v":2}`)) {
			t.Fatalf("fp %d after compaction: %q, %v", i, got, ok)
		}
	}
	if _, ok := s.Load(fpN(9)); ok {
		t.Fatal("deleted record survived compaction")
	}
	// Old segment files are gone; reopen agrees with in-memory state.
	s.Close()
	s2 := mustOpen(t, dir, Options{})
	if s2.Len() != 9 {
		t.Fatalf("reopen after compaction: Len = %d", s2.Len())
	}
	if recs, err := s2.Select(Query{Where: map[string]string{"n": "2"}}); err != nil || len(recs) != 1 {
		t.Fatalf("feature query after compaction: %v, %v", recs, err)
	}
}

func TestEvictionBoundsLiveBytes(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{MaxBytes: 4096, CompactFraction: 1})
	blob := bytes.Repeat([]byte("y"), 200)
	for i := 0; i < 50; i++ {
		if err := s.Put(fpN(i), nil, blob); err != nil {
			t.Fatal(err)
		}
		// Keep fp 0 hot so recency, not insertion order, decides victims.
		s.Load(fpN(0))
	}
	st := s.Stats()
	if st.LiveBytes > 4096 {
		t.Fatalf("live bytes %d exceed the 4096 budget", st.LiveBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions")
	}
	if _, ok := s.Load(fpN(0)); !ok {
		t.Fatal("recently-used record was evicted ahead of colder ones")
	}
	if _, ok := s.Load(fpN(1)); ok {
		t.Fatal("cold record survived a 20x overcommit")
	}
}

func TestIterSortedAndSelectLimit(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	for i := 9; i >= 0; i-- { // insert descending; iteration must sort
		if err := s.Put(fpN(i), nil, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	var got []runcache.Fingerprint
	if err := s.Iter(func(r Record) error {
		got = append(got, r.Fingerprint)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != fpN(i) {
			t.Fatalf("Iter order[%d] = %s, want %s", i, got[i], fpN(i))
		}
	}
	recs, err := s.Select(Query{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Fingerprint != fpN(0) {
		t.Fatalf("Select limit: %v", recs)
	}
}

func TestQuarantineTombstones(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if err := s.Put(fpN(1), nil, []byte("not json, but the store does not care")); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine(fpN(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(fpN(1)); ok {
		t.Fatal("quarantined record still loads")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d", st.Quarantined)
	}
	if err := s.Quarantine(fpN(2)); err != nil {
		t.Fatal("quarantining an absent record must be a no-op, got", err)
	}
}

func TestBadFrameCapRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	// A record that would exceed the frame cap must error, not corrupt.
	huge := make([]byte, maxPayload+1)
	if err := s.Put(fpN(1), nil, huge); err == nil {
		t.Fatal("oversized record accepted")
	}
	if err := s.Put(fpN(2), nil, []byte("ok")); err != nil {
		t.Fatal("store unusable after rejected oversized put:", err)
	}
}

// recHook records hook events for inspection. Callbacks run on the
// mutating goroutine, so a plain mutex suffices.
type recHook struct {
	mu      sync.Mutex
	puts    []runcache.Fingerprint
	removes []runcache.Fingerprint
}

func (h *recHook) RecordPut(fp runcache.Fingerprint, feat runcache.Features, blob []byte) {
	h.mu.Lock()
	h.puts = append(h.puts, fp)
	h.mu.Unlock()
}

func (h *recHook) RecordRemove(fp runcache.Fingerprint) {
	h.mu.Lock()
	h.removes = append(h.removes, fp)
	h.mu.Unlock()
}

func TestHookSeesPutsAndDeletes(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	h := &recHook{}
	s.SetHook(h)
	feat := runcache.Features{{Key: "workload", Value: "bm_cc"}}
	if err := s.Put(fpN(1), feat, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(fpN(2), nil, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(fpN(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine(fpN(2)); err != nil {
		t.Fatal(err)
	}
	// Absent-record deletes must not fire.
	if err := s.Delete(fpN(9)); err != nil {
		t.Fatal(err)
	}
	if len(h.puts) != 2 || h.puts[0] != fpN(1) || h.puts[1] != fpN(2) {
		t.Fatalf("puts = %v", h.puts)
	}
	if len(h.removes) != 2 || h.removes[0] != fpN(1) || h.removes[1] != fpN(2) {
		t.Fatalf("removes = %v", h.removes)
	}
}

func TestHookSeesEvictionVictims(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{MaxBytes: 4096, CompactFraction: 1})
	h := &recHook{}
	s.SetHook(h)
	blob := bytes.Repeat([]byte("y"), 200)
	for i := 0; i < 50; i++ {
		if err := s.Put(fpN(i), nil, blob); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions at a 20x overcommit")
	}
	if uint64(len(h.removes)) != st.Evictions {
		t.Fatalf("hook saw %d removes, store counted %d evictions", len(h.removes), st.Evictions)
	}
	// Every victim the hook reported must actually be gone, and no
	// surviving record may have been reported.
	for _, fp := range h.removes {
		if _, ok := s.Load(fp); ok {
			t.Fatalf("hook reported %s evicted but it still loads", fp.Short())
		}
	}
	if len(h.puts) != 50 {
		t.Fatalf("hook saw %d puts, want 50", len(h.puts))
	}
}
