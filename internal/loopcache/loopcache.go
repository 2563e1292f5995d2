// Package loopcache models the loop buffer of Figure 1: a tiny structure
// that, after a short training period, replays the uops of a small hot loop
// so both the I-cache/decoder path and the uop cache can idle while the loop
// spins.
//
// The model captures straight-line loop bodies (backward taken branch whose
// body contains no other control transfer) whose uops fit the buffer, the
// common case real loop buffers target.
package loopcache

import "uopsim/internal/stats"

// Config sizes the loop cache.
type Config struct {
	// MaxUops is the buffer capacity; loops with more uops are not captured.
	MaxUops int
	// TrainThreshold is how many consecutive taken observations of the same
	// backward branch arm a capture.
	TrainThreshold int
	// Enabled turns the structure on.
	Enabled bool
}

// DefaultConfig returns a small, conservatively sized loop buffer.
func DefaultConfig() Config {
	return Config{MaxUops: 32, TrainThreshold: 16, Enabled: true}
}

// Loop is a captured loop body.
type Loop struct {
	// Start is the branch target (loop head) address.
	Start uint64
	// BranchPC is the backward branch's address.
	BranchPC uint64
	// InstIDs is the body in fetch order (branch included, last).
	InstIDs []uint32
	// NumUops is the body's uop count.
	NumUops int
}

// LoopCache holds at most one captured loop (like commercial loop buffers,
// which replay a single innermost loop at a time).
type LoopCache struct {
	cfg Config

	current    *Loop // nil or &loop
	loop       Loop  // the captured loop; its InstIDs backing is reused
	trainPC    uint64
	trainCount int

	captures, replToggles stats.Counter
	uopsServed            stats.Counter
}

// RegisterMetrics publishes the loop-cache counters under sc (expected
// mount point: "lc").
func (lc *LoopCache) RegisterMetrics(sc stats.Scope) {
	sc.RegisterCounter("captures", &lc.captures)
	sc.RegisterCounter("repl_toggles", &lc.replToggles)
	sc.RegisterCounter("uops_served", &lc.uopsServed)
}

// New builds a loop cache.
func New(cfg Config) *LoopCache {
	lc := &LoopCache{}
	lc.Reset(cfg)
	return lc
}

// Reset empties lc into the loop cache New(cfg) builds. The captured body's
// backing array is kept for the next capture.
func (lc *LoopCache) Reset(cfg Config) {
	if cfg.MaxUops < 1 {
		cfg.MaxUops = 1
	}
	if cfg.TrainThreshold < 1 {
		cfg.TrainThreshold = 1
	}
	*lc = LoopCache{cfg: cfg, loop: Loop{InstIDs: lc.loop.InstIDs[:0]}}
}

// Enabled reports whether the structure is on.
func (lc *LoopCache) Enabled() bool { return lc.cfg.Enabled }

// MaxUops returns the capacity.
func (lc *LoopCache) MaxUops() int { return lc.cfg.MaxUops }

// ObserveBackwardTaken notifies the trainer of a taken backward branch. It
// returns true when the branch just crossed the training threshold and the
// caller should attempt a capture (via Install).
func (lc *LoopCache) ObserveBackwardTaken(branchPC, target uint64) bool {
	if !lc.cfg.Enabled {
		return false
	}
	if lc.current != nil && lc.current.BranchPC == branchPC {
		return false // already captured
	}
	if lc.trainPC != branchPC {
		lc.trainPC = branchPC
		lc.trainCount = 0
	}
	lc.trainCount++
	return lc.trainCount == lc.cfg.TrainThreshold
}

// ObserveOther resets training when a different control transfer interleaves
// (the trainer wants consecutive iterations).
func (lc *LoopCache) ObserveOther() {
	lc.trainCount = 0
	lc.trainPC = 0
}

// Install captures a loop, copying its body into storage the loop cache
// owns (the caller may reuse l.InstIDs); it returns false (and captures
// nothing) when the body exceeds the buffer. A Loop returned by an earlier
// Lookup is overwritten.
func (lc *LoopCache) Install(l Loop) bool {
	if !lc.cfg.Enabled || l.NumUops > lc.cfg.MaxUops || len(l.InstIDs) == 0 {
		return false
	}
	ids := append(lc.loop.InstIDs[:0], l.InstIDs...)
	lc.loop = l
	lc.loop.InstIDs = ids
	lc.current = &lc.loop
	lc.captures.Inc()
	lc.replToggles.Inc()
	return true
}

// Lookup returns the captured loop when addr is its head.
func (lc *LoopCache) Lookup(addr uint64) (*Loop, bool) {
	if !lc.cfg.Enabled || lc.current == nil || lc.current.Start != addr {
		return nil, false
	}
	return lc.current, true
}

// NoteServed accounts uops supplied by the loop cache.
func (lc *LoopCache) NoteServed(uops int) { lc.uopsServed.Add(uint64(uops)) }

// Evict drops the captured loop (exit churn or SMC invalidation).
func (lc *LoopCache) Evict() { lc.current = nil }

// InvalidateRange drops the loop if it overlaps [lo, hi) (SMC).
func (lc *LoopCache) InvalidateRange(lo, hi uint64) {
	if lc.current == nil {
		return
	}
	if lc.current.Start < hi && lc.current.BranchPC >= lo {
		lc.current = nil
	}
}

// Stats returns (captures, uops served).
func (lc *LoopCache) Stats() (uint64, uint64) { return lc.captures.Value(), lc.uopsServed.Value() }
