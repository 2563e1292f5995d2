package runcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"uopsim/internal/stats"
)

// Stats counts how the engine resolved the points submitted to it. The
// split between Simulated and the hit counters is the dedupe/caching
// evidence the experiment harness reports (and CI asserts on).
type Stats struct {
	// Submitted is the total number of Do calls.
	Submitted uint64 `json:"submitted"`
	// Unique is the number of distinct fingerprints submitted.
	Unique uint64 `json:"unique"`
	// MemoHits counts submissions that joined an existing in-process
	// entry (completed or still in flight).
	MemoHits uint64 `json:"memo_hits"`
	// Simulated counts points resolved by running compute.
	Simulated uint64 `json:"simulated"`
	// DiskHits counts points resolved from a valid on-disk blob.
	DiskHits uint64 `json:"disk_hits"`
	// DiskWrites counts blobs persisted after a simulation.
	DiskWrites uint64 `json:"disk_writes"`
	// BadBlobs counts on-disk entries that failed to decode or validate
	// and were re-simulated instead of trusted.
	BadBlobs uint64 `json:"bad_blobs"`
	// Verified / VerifyFailed count -cache-verify re-simulations and the
	// bit-level mismatches they caught.
	Verified     uint64 `json:"verified"`
	VerifyFailed uint64 `json:"verify_failed"`
}

// DedupeFactor is submitted points per simulation-or-disk resolution: how
// many times each unique design point was reused on average.
func (s Stats) DedupeFactor() float64 {
	if s.Unique == 0 {
		return 1
	}
	return float64(s.Submitted) / float64(s.Unique)
}

// String renders the one-line summary the cmds log after a sweep.
func (s Stats) String() string {
	return fmt.Sprintf("submitted=%d unique=%d simulated=%d memo_hits=%d disk_hits=%d disk_writes=%d bad_blobs=%d verified=%d verify_failed=%d dedupe=%.2fx",
		s.Submitted, s.Unique, s.Simulated, s.MemoHits, s.DiskHits, s.DiskWrites, s.BadBlobs, s.Verified, s.VerifyFailed, s.DedupeFactor())
}

// Engine memoizes design-point results by fingerprint. The first submitter
// of a fingerprint resolves it (disk load if attached, otherwise compute,
// run in the submitter's goroutine so the caller's worker pool bounds
// concurrency); every other submitter blocks until the entry completes and
// shares the result. Errors memoize too — a deterministic simulator fails
// a point the same way every time, so re-running it for each duplicate
// submission would only repeat the cost.
type Engine[T any] struct {
	store       Store
	validate    func(T) error
	verifyEvery int

	mu        sync.Mutex
	entries   map[Fingerprint]*entry[T] //uopvet:guardedby mu
	st        Stats                     //uopvet:guardedby mu
	verifySeq uint64                    //uopvet:guardedby mu
}

type entry[T any] struct {
	done chan struct{}
	val  T
	res  Resolution
	err  error
}

// Resolution identifies how one DoResolved call obtained its result. A
// long-lived service reports it per request so clients (and its load
// generator) can measure cache effectiveness without scraping counters.
type Resolution uint8

const (
	// ResolvedCompute means this call ran compute: the point was a miss
	// everywhere (or a cache-verify re-simulation).
	ResolvedCompute Resolution = iota
	// ResolvedMemo means the call shared an in-process entry created by an
	// earlier submission of the same fingerprint.
	ResolvedMemo
	// ResolvedDisk means the call decoded a valid on-disk blob.
	ResolvedDisk
)

// String names the resolution ("simulated", "memo", "disk").
func (r Resolution) String() string {
	switch r {
	case ResolvedCompute:
		return "simulated"
	case ResolvedMemo:
		return "memo"
	case ResolvedDisk:
		return "disk"
	}
	return "resolution?"
}

// New builds an engine with in-process memoization only.
func New[T any]() *Engine[T] {
	return &Engine[T]{entries: make(map[Fingerprint]*entry[T])}
}

// SetStore attaches a persistence back end (in production, a
// warehouse.Store). Configure before the first Do.
func (e *Engine[T]) SetStore(s Store) { e.store = s }

// Store returns the attached persistence back end, or nil for an
// in-process-only engine. Callers that move blobs between engines (the
// cluster gateway's peer replication) read and write through it directly;
// the engine's in-process memo stays consistent because a Put replaces a
// blob with identical bytes — the simulator is deterministic — and a
// fingerprint this engine has never resolved simply becomes a disk hit.
func (e *Engine[T]) Store() Store { return e.store }

// SetValidate installs a semantic check applied to decoded disk blobs; a
// blob that fails it counts as corrupt and is re-simulated, never trusted.
func (e *Engine[T]) SetValidate(fn func(T) error) { e.validate = fn }

// SetVerifyEvery enables cache verification: every n-th point that would
// have been served from disk is re-simulated and its re-encoded result
// compared bit-for-bit against the cached blob; a mismatch resolves the
// point as an error naming the stale blob. 0 disables verification.
func (e *Engine[T]) SetVerifyEvery(n int) { e.verifyEvery = n }

// Stats returns a copy of the resolution counters.
func (e *Engine[T]) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.st
}

// RegisterStats registers the engine's resolution counters as gauges under
// sc, so a metrics consumer (the uopsimd /metrics endpoint, uopexp
// -metrics) reports cache effectiveness through the same registry pipeline
// as every other instrument. Gauges read live engine state at snapshot
// time under the engine's own lock. Register a given engine into a given
// registry once; a second registration of the same paths panics.
func (e *Engine[T]) RegisterStats(sc stats.Scope) {
	counter := func(name string, read func(Stats) uint64) {
		sc.RegisterGauge(name, func() float64 { return float64(read(e.Stats())) })
	}
	counter("submitted", func(s Stats) uint64 { return s.Submitted })
	counter("unique", func(s Stats) uint64 { return s.Unique })
	counter("memo_hits", func(s Stats) uint64 { return s.MemoHits })
	counter("simulated", func(s Stats) uint64 { return s.Simulated })
	counter("disk_hits", func(s Stats) uint64 { return s.DiskHits })
	counter("disk_writes", func(s Stats) uint64 { return s.DiskWrites })
	counter("bad_blobs", func(s Stats) uint64 { return s.BadBlobs })
	counter("verified", func(s Stats) uint64 { return s.Verified })
	counter("verify_failed", func(s Stats) uint64 { return s.VerifyFailed })
	sc.RegisterGauge("dedupe_factor", func() float64 { return e.Stats().DedupeFactor() })
}

// StatsSnapshot returns the engine's counters as a stable-ordered snapshot
// under the "runcache." prefix — the same shape RegisterStats mounts into
// a long-lived registry, for callers that want a one-shot dump.
func (e *Engine[T]) StatsSnapshot() stats.Snapshot {
	r := stats.NewRegistry()
	e.RegisterStats(r.Scope("runcache"))
	return r.Snapshot()
}

// Do resolves the design point at fp, running compute at most once per
// fingerprint per process. Safe for concurrent use.
func (e *Engine[T]) Do(fp Fingerprint, compute func() (T, error)) (T, error) {
	v, _, err := e.DoFeatured(fp, nil, compute)
	return v, err
}

// DoResolved is Do plus how: whether this call computed, joined an
// in-process entry, or was served from disk. Duplicate submissions of an
// entry report ResolvedMemo regardless of how its first submitter
// resolved it.
func (e *Engine[T]) DoResolved(fp Fingerprint, compute func() (T, error)) (T, Resolution, error) {
	return e.DoFeatured(fp, nil, compute)
}

// DoFeatured is DoResolved carrying the point's canonical feature vector,
// which a feature-indexed store (the warehouse) persists alongside the
// blob so stored results answer config-field queries. Features never enter
// the fingerprint — submitting the same fp with and without them resolves
// to one entry — and a featureless store drops them.
func (e *Engine[T]) DoFeatured(fp Fingerprint, feat Features, compute func() (T, error)) (T, Resolution, error) {
	e.mu.Lock()
	e.st.Submitted++
	if en, ok := e.entries[fp]; ok {
		e.st.MemoHits++
		e.mu.Unlock()
		<-en.done
		return en.val, ResolvedMemo, en.err
	}
	en := &entry[T]{done: make(chan struct{})}
	e.entries[fp] = en
	e.st.Unique++
	e.mu.Unlock()

	en.val, en.res, en.err = e.resolve(fp, feat, compute)
	close(en.done)
	return en.val, en.res, en.err
}

func (e *Engine[T]) resolve(fp Fingerprint, feat Features, compute func() (T, error)) (T, Resolution, error) {
	if e.store != nil {
		if blob, ok := e.store.Load(fp); ok {
			var v T
			if err := json.Unmarshal(blob, &v); err == nil && e.valid(v) {
				if e.shouldVerify() {
					v, err := e.verifyAgainst(fp, blob, compute)
					return v, ResolvedCompute, err
				}
				e.bump(func(s *Stats) { s.DiskHits++ })
				return v, ResolvedDisk, nil
			}
			// The blob is undecodable or semantically invalid; pay the miss
			// once. Quarantining it (a warehouse tombstone) keeps the next
			// Load a clean miss instead of a decode failure forever.
			e.bump(func(s *Stats) { s.BadBlobs++ })
			_ = e.store.Quarantine(fp) // best effort: re-simulation below is the recovery either way
		}
	}
	v, err := compute()
	e.bump(func(s *Stats) { s.Simulated++ })
	if err == nil && e.store != nil {
		if blob, merr := json.Marshal(v); merr == nil && e.store.Put(fp, feat, blob) == nil {
			e.bump(func(s *Stats) { s.DiskWrites++ })
		}
	}
	return v, ResolvedCompute, err
}

// verifyAgainst re-simulates a disk-cached point and diffs the fresh
// encoding against the cached blob bit-for-bit.
func (e *Engine[T]) verifyAgainst(fp Fingerprint, cached []byte, compute func() (T, error)) (T, error) {
	v, err := compute()
	e.bump(func(s *Stats) { s.Simulated++ })
	if err != nil {
		return v, fmt.Errorf("cache-verify %s: re-simulation failed: %w", fp.Short(), err)
	}
	fresh, err := json.Marshal(v)
	if err != nil {
		return v, fmt.Errorf("cache-verify %s: %w", fp.Short(), err)
	}
	if !bytes.Equal(fresh, cached) {
		e.bump(func(s *Stats) { s.VerifyFailed++ })
		return v, fmt.Errorf("cache-verify: cached blob %s does not match re-simulation (stale or corrupt cache entry; delete it or the store directory)",
			e.store.Location(fp))
	}
	e.bump(func(s *Stats) { s.Verified++ })
	return v, nil
}

func (e *Engine[T]) valid(v T) bool {
	return e.validate == nil || e.validate(v) == nil
}

func (e *Engine[T]) shouldVerify() bool {
	if e.verifyEvery <= 0 {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.verifySeq++
	return e.verifySeq%uint64(e.verifyEvery) == 0
}

// bump applies one counter mutation under the lock; callers pass a
// closure instead of a field pointer so no guarded address escapes the
// lock region.
func (e *Engine[T]) bump(f func(*Stats)) {
	e.mu.Lock()
	f(&e.st)
	e.mu.Unlock()
}
