// Package uopcache implements the paper's subject: the micro-operations
// cache. It provides byte-accurate uop cache entries with the five
// termination conditions of §II-B2, the set-associative structure indexed by
// prediction-window start address, SMC invalidation probes, and the paper's
// two optimizations — CLASP (§V-A) and Compaction with the RAC / PWAC /
// F-PWAC allocation policies (§V-B).
package uopcache

import (
	"fmt"

	"uopsim/internal/isa"
)

// Byte-accounting constants (§II-B1, Table I).
const (
	// LineBytes is the physical uop cache line size.
	LineBytes = 64
	// UopBytes is the storage of one uop (56 bits, Table I).
	UopBytes = 7
	// ImmBytes is the storage of one immediate/displacement field (32 bits).
	ImmBytes = 4
	// CtrBytes is the per-entry error-protection field ("ctr", Fig 11).
	CtrBytes = 2
	// ICLineBytes is the I-cache line size entries are built against.
	ICLineBytes = 64
	// MaxEntryInsts bounds the instructions of one entry: every instruction
	// decodes to at least one uop, and a line holds at most
	// (LineBytes-CtrBytes)/UopBytes = 8 uops.
	MaxEntryInsts = (LineBytes - CtrBytes) / UopBytes
)

// TermReason records why an entry was terminated (§II-B2).
type TermReason uint8

const (
	// TermNone marks an entry still being built.
	TermNone TermReason = iota
	// TermICBoundary: next instruction crosses the I-cache line boundary.
	TermICBoundary
	// TermTakenBranch: the entry ends in a predicted taken branch.
	TermTakenBranch
	// TermMaxUops: the next instruction would exceed the max uops/entry.
	TermMaxUops
	// TermMaxImm: the next instruction would exceed max imm/disp fields.
	TermMaxImm
	// TermMaxUcode: the next instruction would exceed max microcoded insts.
	TermMaxUcode
	// TermCapacity: the next instruction's bytes would overflow the line.
	TermCapacity
	// TermFlush: the front end was redirected mid-build (partial entries are
	// discarded, this reason is only seen by stats on abandonment).
	TermFlush
)

var termNames = []string{"none", "icboundary", "takenbranch", "maxuops", "maximm", "maxucode", "capacity", "flush"}

// String names the reason.
func (t TermReason) String() string {
	if int(t) < len(termNames) {
		return termNames[t]
	}
	return fmt.Sprintf("term(%d)", uint8(t))
}

// Entry is one uop cache entry: the uops of a run of consecutively fetched
// instructions plus the metadata needed to address them (§II-B2, Fig 11).
// Its instruction IDs are stored inline, so an entry is a single fixed-size
// object that a Cache can recycle (see Cache.Fill and NewBuilder).
type Entry struct {
	// Start is the address of the first instruction (the lookup key: tag +
	// set index derive from it).
	Start uint64
	// End is the address one past the last instruction's final byte; it is
	// the next fetch address on a hit (unless the entry ends taken).
	End uint64
	// ids[:nInsts] are the static instruction IDs in fetch order.
	ids    [MaxEntryInsts]uint32
	nInsts uint8
	// NumUops and NumImm are the stored uop and imm/disp field counts.
	NumUops, NumImm uint8
	// NumUcoded counts microcoded instructions in the entry.
	NumUcoded uint8
	// PWID identifies the prediction window that created the entry (PW
	// start address; used by PWAC/F-PWAC).
	PWID uint64
	// Term is why the entry was terminated.
	Term TermReason
	// EndsTaken marks entries terminated by a predicted taken branch: on a
	// hit the next fetch address is the branch target, not End.
	EndsTaken bool
	// SpansBoundary marks CLASP entries that cross an I-cache line boundary.
	SpansBoundary bool
}

// Bytes returns the storage footprint of the entry in its line.
func (e *Entry) Bytes() int {
	return int(e.NumUops)*UopBytes + int(e.NumImm)*ImmBytes + CtrBytes
}

// NumInsts returns the instruction count.
func (e *Entry) NumInsts() int { return int(e.nInsts) }

// InstIDs returns the static instruction IDs in fetch order. The slice views
// the entry's own storage: it is valid only as long as the entry is.
func (e *Entry) InstIDs() []uint32 { return e.ids[:e.nInsts] }

// Contains reports whether the entry covers code address addr (used by SMC
// invalidation probes).
func (e *Entry) Contains(addr uint64) bool { return addr >= e.Start && addr < e.End }

// OverlapsLine reports whether any byte of the entry lies in the 64B code
// line at lineAddr.
func (e *Entry) OverlapsLine(lineAddr uint64) bool {
	lo := lineAddr &^ uint64(ICLineBytes-1)
	hi := lo + ICLineBytes
	return e.Start < hi && e.End > lo
}

// BuildLimits bounds entry construction (Table I).
type BuildLimits struct {
	// MaxUops per entry (8).
	MaxUops int
	// MaxImm imm/disp fields per entry (4).
	MaxImm int
	// MaxUcoded microcoded instructions per entry (4).
	MaxUcoded int
	// MaxICLines is the number of contiguous I-cache lines an entry may
	// span: 1 in the baseline, 2 with CLASP (§V-A).
	MaxICLines int
}

// DefaultLimits returns the Table I limits for a baseline uop cache.
func DefaultLimits() BuildLimits {
	return BuildLimits{MaxUops: 8, MaxImm: 4, MaxUcoded: 4, MaxICLines: 1}
}

// Builder is the accumulation-buffer-side entry construction logic: the
// decoder pushes instructions in fetch order, and the builder emits
// terminated entries (§II-B2). The emit callback installs into the cache.
type Builder struct {
	limits BuildLimits

	open      *Entry
	openLines int // I-cache lines touched by the open entry
	// cache supplies new entries from its free list and takes back the
	// ones a flush abandons.
	cache *Cache

	emit  func(*Entry)
	stats *Stats

	// Fig 12 bookkeeping: how many entries received uops from the current
	// dynamic prediction window.
	curPWInstance    uint64
	entriesForPW     int
	countedThisEntry bool

	// abandoned counts partial entries dropped on pipeline flush.
	abandoned uint64
}

// NewBuilder creates a builder that fills c: it takes new entries from c's
// free list, emit is invoked for every terminated entry and must install it
// into c (which recycles an entry once it drops it), and per-PW
// distribution statistics are recorded in c.Stats. Several builders may fill
// one cache (SMT threads sharing it).
func NewBuilder(limits BuildLimits, c *Cache, emit func(*Entry)) *Builder {
	if limits.MaxICLines < 1 {
		limits.MaxICLines = 1
	}
	return &Builder{limits: limits, cache: c, stats: c.Stats, emit: emit}
}

func icLine(addr uint64) uint64 { return addr &^ uint64(ICLineBytes-1) }

// Add pushes one decoded instruction into the accumulation buffer.
// pwID identifies the prediction window the instruction was fetched under
// (its start address, stable across dynamic instances), pwInstance is a
// unique number per dynamic PW (Fig 12 accounting), and predictedTaken marks
// instructions that end their PW as a predicted taken branch (which also
// terminates the entry).
//
//uopvet:hotpath
func (b *Builder) Add(in *isa.Inst, pwID, pwInstance uint64, predictedTaken bool) {
	if pwInstance != b.curPWInstance {
		if b.curPWInstance != 0 && b.entriesForPW > 0 {
			b.stats.EntriesPerPW.Observe(b.entriesForPW)
		}
		b.curPWInstance = pwInstance
		b.entriesForPW = 0
		b.countedThisEntry = false
	}
	uops := int(in.NumUops)
	imms := int(in.ImmDisp)
	ucoded := 0
	if in.IsMicrocoded() {
		ucoded = 1
	}

	if b.open != nil {
		// Sequentiality: a non-contiguous instruction means the previous
		// entry should already have been terminated (taken branch); guard
		// against desynchronized callers by terminating here.
		if in.Addr != b.open.End {
			b.terminate(TermTakenBranch)
		}
	}
	if b.open != nil {
		// I-cache line boundary (relaxed to MaxICLines under CLASP).
		if icLine(in.Addr) != icLine(b.open.Start) {
			linesSpanned := int((icLine(in.Addr)-icLine(b.open.Start))/ICLineBytes) + 1
			if linesSpanned > b.limits.MaxICLines {
				b.terminate(TermICBoundary)
			} else if linesSpanned > b.openLines {
				b.openLines = linesSpanned
			}
		}
	}
	if b.open != nil {
		switch {
		case int(b.open.NumUops)+uops > b.limits.MaxUops:
			b.terminate(TermMaxUops)
		case int(b.open.NumImm)+imms > b.limits.MaxImm:
			b.terminate(TermMaxImm)
		case int(b.open.NumUcoded)+ucoded > b.limits.MaxUcoded:
			b.terminate(TermMaxUcode)
		case (int(b.open.NumUops)+uops)*UopBytes+(int(b.open.NumImm)+imms)*ImmBytes+CtrBytes > LineBytes:
			b.terminate(TermCapacity)
		}
	}

	if b.open == nil {
		b.open = b.cache.takeEntry()
		b.open.Start, b.open.End, b.open.PWID = in.Addr, in.Addr, pwID
		b.openLines = 1
		b.countedThisEntry = false
	}
	e := b.open
	if !b.countedThisEntry {
		b.entriesForPW++
		b.countedThisEntry = true
	}
	e.ids[e.nInsts] = in.ID
	e.nInsts++
	e.NumUops += uint8(uops)
	e.NumImm += uint8(imms)
	e.NumUcoded += uint8(ucoded)
	e.End = in.End()
	// Spanning is judged by instruction start bytes (an instruction belongs
	// to the I-cache line holding its first byte).
	if icLine(in.Addr) != icLine(e.Start) {
		e.SpansBoundary = true
	}

	if predictedTaken {
		e.EndsTaken = true
		b.terminate(TermTakenBranch)
	}
}

func (b *Builder) terminate(reason TermReason) {
	e := b.open
	b.open = nil
	b.openLines = 0
	if e == nil || e.nInsts == 0 {
		return
	}
	e.Term = reason
	b.emit(e)
}

// TerminateTaken closes the open entry as taken-branch-terminated. It is
// used on a decode-time redirect: the decoder just discovered that the last
// accumulated instruction is a taken control transfer, which is a valid
// entry ending.
func (b *Builder) TerminateTaken() {
	if b.open != nil {
		b.open.EndsTaken = true
		b.terminate(TermTakenBranch)
	}
}

// Flush discards any partial entry (pipeline redirect). Real hardware drops
// the accumulation buffer contents on a flush rather than installing a
// half-built entry. The abandoned entry goes back to the cache's free list,
// so the next entry built reuses it.
func (b *Builder) Flush() {
	if b.open != nil {
		if b.open.nInsts > 0 {
			b.abandoned++
		}
		b.cache.release(b.open)
	}
	b.open = nil
	b.openLines = 0
}

// Abandoned returns how many partial entries were dropped by flushes.
func (b *Builder) Abandoned() uint64 { return b.abandoned }
