package bpred

import (
	"uopsim/internal/isa"
	"uopsim/internal/reuse"
)

// BTBBranch is one branch recorded in a BTB entry.
type BTBBranch struct {
	Valid  bool
	Offset uint8 // byte offset of the branch within its 64B line
	Len    uint8 // instruction length (locates the branch end / fallthrough)
	Kind   isa.BranchKind
	Target uint64 // last known target (direct target, or last indirect target)
}

// PC returns the branch's full address given its line.
func (b BTBBranch) PC(lineAddr uint64) uint64 { return lineAddr + uint64(b.Offset) }

// FallThrough returns the address after the branch.
func (b BTBBranch) FallThrough(lineAddr uint64) uint64 {
	return lineAddr + uint64(b.Offset) + uint64(b.Len)
}

// btbEntry covers one 64-byte code line and records up to two branches in it
// (Table I: "2 branches per BTB entry"). Branch i is slot[i] plus
// target[i]: split that way an entry is 40 bytes, where two BTBBranch
// values would pad it to 48.
type btbEntry struct {
	key     uint64 // the line address plus one; 0 marks an empty way
	lruTick uint64
	target  [2]uint64
	slot    [2]btbSlot
}

// btbSlot is a recorded branch without its target.
type btbSlot struct {
	valid  bool
	offset uint8
	len    uint8
	kind   isa.BranchKind
}

// branch returns branch i of e.
func (e *btbEntry) branch(i int) BTBBranch {
	s := e.slot[i]
	return BTBBranch{Valid: s.valid, Offset: s.offset, Len: s.len, Kind: s.kind, Target: e.target[i]}
}

// set records br as branch i of e.
func (e *btbEntry) set(i int, br BTBBranch) {
	e.slot[i] = btbSlot{valid: br.Valid, offset: br.Offset, len: br.Len, kind: br.Kind}
	e.target[i] = br.Target
}

// btbLevel is one set-associative level of the BTB.
type btbLevel struct {
	sets  int
	ways  int
	data  []btbEntry // sets*ways
	ticks uint64

	// scratch backs the hit list returned by lookup; it is valid only until
	// the next lookup on this level. The BTB is probed for every prediction
	// window, so a per-call allocation here dominated the heap profile.
	scratch []*btbEntry
}

// reset empties l into a sets x ways level, reusing its entry array and
// hit-list scratch.
func (l *btbLevel) reset(sets, ways int) {
	*l = btbLevel{sets: sets, ways: ways, data: reuse.Slice(l.data, sets*ways), scratch: l.scratch[:0]}
}

const lineShift = 6 // 64B lines

// lookup returns all entries tagged with lineAddr (a line with many branches
// can occupy several ways, each holding up to two branches), refreshing LRU.
// The returned slice is reused by the next lookup on this level.
//
//uopvet:hotpath
func (l *btbLevel) lookup(lineAddr uint64) []*btbEntry {
	set := int(lineAddr>>lineShift) & (l.sets - 1)
	base := set * l.ways
	hits := l.scratch[:0]
	for w := 0; w < l.ways; w++ {
		e := &l.data[base+w]
		if e.key == lineAddr+1 {
			l.ticks++
			e.lruTick = l.ticks
			hits = append(hits, e)
		}
	}
	l.scratch = hits
	return hits
}

// install copies entry src (or allocates fresh) for lineAddr and returns it.
func (l *btbLevel) install(lineAddr uint64, src *btbEntry) *btbEntry {
	set := int(lineAddr>>lineShift) & (l.sets - 1)
	base := set * l.ways
	victim := base
	for w := 0; w < l.ways; w++ {
		e := &l.data[base+w]
		if e.key == 0 {
			victim = base + w
			break
		}
		if e.lruTick < l.data[victim].lruTick {
			victim = base + w
		}
	}
	e := &l.data[victim]
	if src != nil {
		*e = *src
	} else {
		*e = btbEntry{}
	}
	e.key = lineAddr + 1
	l.ticks++
	e.lruTick = l.ticks
	return e
}

// BTB is the two-level branch target buffer.
type BTB struct {
	l1, l2 btbLevel
	// L2HitPenalty is the BPU bubble (cycles) on an L1 miss that hits in L2.
	L2HitPenalty int

	hitsL1, hitsL2, misses uint64
}

// NewBTB builds the default two-level geometry: 1K-entry L1, 8K-entry L2
// (each entry covers a 64B line with up to 2 branches; commercial two-level
// BTBs hold several thousand branches).
func NewBTB() *BTB {
	b := &BTB{}
	b.reset()
	return b
}

// reset empties both levels in place and restores the default L2 hit
// penalty, leaving b as NewBTB builds it.
func (b *BTB) reset() {
	b.l1.reset(256, 4)
	b.l2.reset(1024, 8)
	*b = BTB{l1: b.l1, l2: b.l2, L2HitPenalty: 2}
}

// Lookup finds the first recorded branch in the line at or after byte offset
// minOffset. It returns the branch, the BPU bubble cycles incurred by the
// lookup (L2 fill), and whether a branch was found. A miss in both levels
// returns found=false with zero penalty (the front end simply does not know
// about any branch in the line).
func (b *BTB) Lookup(lineAddr uint64, minOffset int) (br BTBBranch, penalty int, found bool) {
	entries := b.l1.lookup(lineAddr)
	if len(entries) == 0 {
		if l2 := b.l2.lookup(lineAddr); len(l2) > 0 {
			for _, e2 := range l2 {
				entries = append(entries, b.l1.install(lineAddr, e2))
			}
			penalty = b.L2HitPenalty
			b.hitsL2++
		} else {
			b.misses++
			return BTBBranch{}, 0, false
		}
	} else {
		b.hitsL1++
	}
	var best BTBBranch
	for _, e := range entries {
		for i := range e.slot {
			s := &e.slot[i]
			if !s.valid || int(s.offset) < minOffset {
				continue
			}
			if !best.Valid || s.offset < best.Offset {
				best = e.branch(i)
			}
		}
	}
	if !best.Valid {
		return BTBBranch{}, penalty, false
	}
	return best, penalty, true
}

// WarmInsert is Insert for the sampled-run fast-forward path: when the
// branch is already recorded identically in L1 (the common case in steady
// state) it only refreshes that entry's recency, skipping the L2 walk and
// rewrite. State differs from Insert only in L2 recency, which the next
// interval's warmup window repairs.
func (b *BTB) WarmInsert(pc uint64, kind isa.BranchKind, target uint64, length uint8) {
	lineAddr := pc &^ uint64((1<<lineShift)-1)
	offset := uint8(pc & ((1 << lineShift) - 1))
	for _, e := range b.l1.lookup(lineAddr) {
		for i := range e.slot {
			s := &e.slot[i]
			if s.valid && s.offset == offset && s.kind == kind && e.target[i] == target && s.len == length {
				return
			}
		}
	}
	b.Insert(pc, kind, target, length)
}

// Insert records (or updates) a branch at pc. It installs into both levels.
func (b *BTB) Insert(pc uint64, kind isa.BranchKind, target uint64, length uint8) {
	lineAddr := pc &^ uint64((1<<lineShift)-1)
	offset := uint8(pc & ((1 << lineShift) - 1))
	br := BTBBranch{Valid: true, Offset: offset, Len: length, Kind: kind, Target: target}
	for _, lvl := range [...]*btbLevel{&b.l1, &b.l2} {
		entries := lvl.lookup(lineAddr)
		placed := false
		// Update in place if the branch is already recorded.
		for _, e := range entries {
			for i := range e.slot {
				if e.slot[i].valid && e.slot[i].offset == offset {
					e.set(i, br)
					placed = true
				}
			}
		}
		if placed {
			continue
		}
		// Otherwise take a free slot in an existing entry for this line...
		for _, e := range entries {
			for i := range e.slot {
				if !e.slot[i].valid {
					e.set(i, br)
					placed = true
					break
				}
			}
			if placed {
				break
			}
		}
		if placed {
			continue
		}
		// ...or allocate a fresh entry (a dense line spills across ways).
		e := lvl.install(lineAddr, nil)
		e.set(0, br)
	}
}

// Stats returns (L1 hits, L2 hits, misses).
func (b *BTB) Stats() (uint64, uint64, uint64) { return b.hitsL1, b.hitsL2, b.misses }
