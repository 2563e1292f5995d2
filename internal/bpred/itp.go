package bpred

import "uopsim/internal/reuse"

// ITP is a small history-hashed indirect target predictor (ITTAGE-lite): a
// direct-mapped tagged table of last targets indexed by PC xor a slice of
// global path/direction history, with 2-bit confidence hysteresis. The BTB's
// recorded target acts as the fallback when the ITP misses.
type ITP struct {
	entries []itpEntry
	mask    uint32

	hits, lookups uint64
}

type itpEntry struct {
	target uint64
	tag    uint32
	conf   int8
}

// NewITP builds a 2K-entry predictor.
func NewITP() *ITP {
	p := &ITP{}
	p.reset()
	return p
}

// reset empties the table in place, leaving p as NewITP builds it.
func (p *ITP) reset() {
	const n = 2048
	*p = ITP{entries: reuse.Slice(p.entries, n), mask: n - 1}
}

func (p *ITP) hash(pc uint64, h *History) (idx, tag uint32) {
	hist := uint32(h.bits[0]) // most recent 32 direction bits
	v := uint32(pc>>1) ^ hist ^ (hist << 7)
	idx = v & p.mask
	tag = uint32(pc>>1) ^ (hist >> 3)
	tag &= 0xffff
	return idx, tag
}

// Predict returns the predicted target for the indirect branch at pc, or
// ok=false when no confident entry exists.
func (p *ITP) Predict(pc uint64, h *History) (target uint64, ok bool) {
	p.lookups++
	idx, tag := p.hash(pc, h)
	e := &p.entries[idx]
	if e.tag == tag && e.conf >= 0 {
		p.hits++
		return e.target, true
	}
	return 0, false
}

// Update trains the predictor with the resolved target.
func (p *ITP) Update(pc uint64, h *History, target uint64) {
	idx, tag := p.hash(pc, h)
	e := &p.entries[idx]
	if e.tag == tag {
		if e.target == target {
			if e.conf < 1 {
				e.conf++
			}
		} else {
			if e.conf > -2 {
				e.conf--
			} else {
				e.target = target
				e.conf = 0
			}
		}
		return
	}
	// Tag miss: steal the entry when its confidence is exhausted.
	if e.conf > -2 {
		e.conf--
		return
	}
	*e = itpEntry{tag: tag, target: target, conf: 0}
}
