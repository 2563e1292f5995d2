package bpred

import "uopsim/internal/reuse"

// TAGE geometry: a bimodal base table plus numTables tagged tables with
// geometrically increasing history lengths, in the spirit of Seznec's
// "A new case for the TAGE branch predictor" (Table I cites [49]).
const (
	numTables  = 7
	logEntries = 12 // 4K entries per tagged table (commercial-class TAGE)
	logBase    = 15 // 32K-entry bimodal base

	ctrMax = 3 // 3-bit signed counter range [-4, 3]
	ctrMin = -4
	uMax   = 3 // 2-bit useful counter
)

var (
	histLens = [numTables]int{5, 9, 15, 27, 44, 76, 130}
	tagBits  = [numTables]int{8, 8, 9, 10, 10, 11, 12}
)

type tageEntry struct {
	tag uint16
	ctr int8 // prediction counter: >= 0 predicts taken
	u   int8 // usefulness
}

// Tage is the direction predictor.
type Tage struct {
	base   []int8 // bimodal 2-bit counters, >= 0 predicts taken
	tables [numTables][]tageEntry

	// useAltOnNA is the USE_ALT_ON_NA counter: when the provider entry is
	// newly allocated (weak), prefer the alternate prediction if this
	// counter says the alternate has been more reliable.
	useAltOnNA int8

	allocSeed uint64 // deterministic allocation tie-breaking
	tick      uint32 // periodic useful-bit aging
}

// NewTage builds a predictor with default geometry.
func NewTage() *Tage {
	t := &Tage{}
	t.reset()
	return t
}

// reset returns t to the untrained state NewTage builds, clearing its
// tables in place.
func (t *Tage) reset() {
	tables := t.tables
	for i := range tables {
		tables[i] = reuse.Slice(tables[i], 1<<logEntries)
	}
	*t = Tage{base: reuse.Slice(t.base, 1<<logBase), tables: tables}
}

// Pred carries everything Update needs about how a prediction was made.
type Pred struct {
	// Taken is the final prediction.
	Taken bool
	// provider is the providing tagged table, or -1 for the bimodal base.
	provider int
	// altTaken is the alternate prediction (next-longest hit or base).
	altTaken bool
	// providerWeak marks a freshly allocated provider entry.
	providerWeak bool
	// indices/tags captured at prediction time so the update is performed
	// on exactly the entries consulted.
	idx  [numTables]uint32
	tags [numTables]uint16
	bidx uint32
}

func (t *Tage) index(pc uint64, h *History, table int) uint32 {
	v := uint32(pc>>2) ^ uint32(pc>>(2+logEntries)) ^ h.idx[table].value() ^ uint32(table)*0x9e37
	return v & ((1 << logEntries) - 1)
}

func (t *Tage) tag(pc uint64, h *History, table int) uint16 {
	v := uint32(pc>>2) ^ h.tag1[table].value() ^ (h.tag2[table].value() << 1)
	return uint16(v & ((1 << uint(tagBits[table])) - 1))
}

// Predict makes the direction prediction for the conditional branch at pc
// under history h, overwriting every field of p.
func (t *Tage) Predict(p *Pred, pc uint64, h *History) {
	p.provider = -1
	p.providerWeak = false
	p.bidx = uint32(pc>>2) & ((1 << logBase) - 1)
	basePred := t.base[p.bidx] >= 0

	alt := -1
	for i := numTables - 1; i >= 0; i-- {
		p.idx[i] = t.index(pc, h, i)
		p.tags[i] = t.tag(pc, h, i)
		if t.tables[i][p.idx[i]].tag == p.tags[i] {
			if p.provider == -1 {
				p.provider = i
			} else if alt == -1 {
				alt = i
			}
		}
	}

	p.altTaken = basePred
	if alt >= 0 {
		p.altTaken = t.tables[alt][p.idx[alt]].ctr >= 0
	}
	if p.provider >= 0 {
		e := &t.tables[p.provider][p.idx[p.provider]]
		p.providerWeak = e.ctr == 0 || e.ctr == -1
		if p.providerWeak && e.u == 0 && t.useAltOnNA >= 0 {
			p.Taken = p.altTaken
		} else {
			p.Taken = e.ctr >= 0
		}
	} else {
		p.Taken = basePred
	}
}

// Update trains the predictor with the resolved outcome. pred must be what
// Predict filled in for this branch instance, and h the history the
// prediction was made under.
func (t *Tage) Update(pc uint64, h *History, pred *Pred, taken bool) {
	_ = h
	correct := pred.Taken == taken

	// USE_ALT_ON_NA bookkeeping: when the provider was weak and provider
	// and alternate disagreed, learn which to trust.
	if pred.provider >= 0 && pred.providerWeak {
		e := &t.tables[pred.provider][pred.idx[pred.provider]]
		providerTaken := e.ctr >= 0
		if providerTaken != pred.altTaken {
			if pred.altTaken == taken {
				t.useAltOnNA = satInc8(t.useAltOnNA, 7)
			} else {
				t.useAltOnNA = satDec8(t.useAltOnNA, -8)
			}
		}
	}

	// Update the provider (or base) counter.
	if pred.provider >= 0 {
		e := &t.tables[pred.provider][pred.idx[pred.provider]]
		e.ctr = satUpdate(e.ctr, taken)
		// Useful bit: provider was correct and alternate was wrong.
		providerTaken := pred.Taken
		if providerTaken == taken && pred.altTaken != taken {
			if e.u < uMax {
				e.u++
			}
		} else if providerTaken != taken && pred.altTaken == taken {
			if e.u > 0 {
				e.u--
			}
		}
	} else {
		t.base[pred.bidx] = satUpdate2(t.base[pred.bidx], taken)
	}

	// Allocate a new entry in a longer-history table on misprediction.
	if !correct && pred.provider < numTables-1 {
		t.allocate(pred, taken)
	}

	// Periodic aging of useful counters so stale entries can be reclaimed.
	t.tick++
	if t.tick&((1<<18)-1) == 0 {
		for i := 0; i < numTables; i++ {
			for j := range t.tables[i] {
				if t.tables[i][j].u > 0 {
					t.tables[i][j].u--
				}
			}
		}
	}
}

func (t *Tage) allocate(pred *Pred, taken bool) {
	start := pred.provider + 1
	// Find a victim with u==0 among longer tables; probabilistically prefer
	// shorter histories (allocation throttling).
	t.allocSeed = t.allocSeed*6364136223846793005 + 1442695040888963407
	r := t.allocSeed >> 33
	avail := -1
	for i := start; i < numTables; i++ {
		if t.tables[i][pred.idx[i]].u == 0 {
			avail = i
			if r&3 != 0 { // 75%: take the first available
				break
			}
			r >>= 2
		}
	}
	if avail < 0 {
		// No victim: decay usefulness along the way.
		for i := start; i < numTables; i++ {
			e := &t.tables[i][pred.idx[i]]
			if e.u > 0 {
				e.u--
			}
		}
		return
	}
	e := &t.tables[avail][pred.idx[avail]]
	e.tag = pred.tags[avail]
	e.u = 0
	if taken {
		e.ctr = 0
	} else {
		e.ctr = -1
	}
}

func satUpdate(c int8, taken bool) int8 {
	if taken {
		if c < ctrMax {
			return c + 1
		}
		return c
	}
	if c > ctrMin {
		return c - 1
	}
	return c
}

// satUpdate2 is the 2-bit bimodal counter update (range [-2, 1]).
func satUpdate2(c int8, taken bool) int8 {
	if taken {
		if c < 1 {
			return c + 1
		}
		return c
	}
	if c > -2 {
		return c - 1
	}
	return c
}

func satInc8(c, max int8) int8 {
	if c < max {
		return c + 1
	}
	return c
}

func satDec8(c, min int8) int8 {
	if c > min {
		return c - 1
	}
	return c
}
