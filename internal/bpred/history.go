// Package bpred implements the front-end branch predictors of Table I: a
// TAGE direction predictor (Seznec [49]), a two-level BTB with two branches
// per entry, a return address stack, and a history-hashed indirect target
// predictor.
//
// The predictor operates decoupled from fetch: predictions use speculative
// global history, tables are trained with correct-path outcomes, and on a
// misprediction redirect the speculative state is restored from the
// architectural (correct-path) state.
package bpred

// maxHistBits is the global-history window; it must cover the longest TAGE
// history length.
const maxHistBits = 256

// History is a global branch-direction history window plus the folded
// (compressed) registers each tagged table uses for indexing and tagging.
// It is a value type: snapshotting/restoring is a plain struct copy.
type History struct {
	bits [maxHistBits / 64]uint64 // bit 0 = most recent outcome
	idx  [numTables]folded
	tag1 [numTables]folded
	tag2 [numTables]folded
}

// folded is a circular-shift-register compression of the most recent origLen
// history bits into compLen bits (the standard TAGE folded history).
type folded struct {
	comp    uint32
	compLen uint8
	// wrap caches origLen % compLen: update runs for every history shift
	// (three folded registers per tagged table), and the modulo was the
	// single hottest instruction in the fast-forward profile.
	wrap    uint8
	origLen uint16
}

func newFolded(origLen, compLen int) folded {
	if compLen > origLen {
		compLen = origLen
	}
	if compLen < 1 {
		compLen = 1
	}
	return folded{compLen: uint8(compLen), wrap: uint8(origLen % compLen), origLen: uint16(origLen)}
}

func (f *folded) update(newBit, oldBit uint32) {
	f.comp = (f.comp << 1) | newBit
	f.comp ^= oldBit << f.wrap
	f.comp ^= f.comp >> f.compLen
	f.comp &= (1 << f.compLen) - 1
}

func (f *folded) value() uint32 { return f.comp }

// NewHistory builds a history sized for the package's TAGE geometry.
func NewHistory() *History {
	h := &History{}
	h.reset()
	return h
}

// reset clears the history to the empty state NewHistory builds.
func (h *History) reset() {
	*h = History{}
	for t := 0; t < numTables; t++ {
		h.idx[t] = newFolded(histLens[t], logEntries)
		h.tag1[t] = newFolded(histLens[t], tagBits[t])
		h.tag2[t] = newFolded(histLens[t], tagBits[t]-1)
	}
}

// bit returns history bit i (0 = most recent).
func (h *History) bit(i int) uint32 {
	return uint32(h.bits[i>>6]>>(uint(i)&63)) & 1
}

// Shift records a new branch outcome as the most recent history bit.
func (h *History) Shift(taken bool) {
	var nb uint32
	if taken {
		nb = 1
	}
	for t := 0; t < numTables; t++ {
		ob := h.bit(histLens[t] - 1)
		h.idx[t].update(nb, ob)
		h.tag1[t].update(nb, ob)
		h.tag2[t].update(nb, ob)
	}
	// Shift the raw window left by one (toward higher bit positions).
	carry := uint64(nb)
	for i := range h.bits {
		next := h.bits[i] >> 63
		h.bits[i] = h.bits[i]<<1 | carry
		carry = next
	}
}

// CopyFrom restores this history from src (redirect repair).
func (h *History) CopyFrom(src *History) { *h = *src }
