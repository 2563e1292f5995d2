package uopcache

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"uopsim/internal/isa"
	"uopsim/internal/rng"
	"uopsim/internal/stats"
)

// FuzzCacheMatchesReference decodes a byte string into a stream of uop
// cache operations and replays it into a Cache and into the pointer-based
// cache this package used before (refCache, below), each filled through its
// own one or two builders. The first three bytes pick the policy, the
// geometry with MaxICLines, and the thread count; each further operation is
// an instruction through a thread's builders (which fill on termination), a
// Lookup, a Probe, an SMC invalidation, a builder flush, a taken-branch
// termination or an unannounced redirect, FlushAll, or a Reset to another
// geometry (see replay). After every operation both sides must agree on
// everything a caller can observe (see twin.check).
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 5, 1, 0, 0, 7, 0, 1, 9, 0, 190, 4, 0, 0, 3, 0, 180, 0, 255, 1, 2})
	// One long stream per policy x entries-per-line x thread count, shaped
	// like a front end's: mostly instructions, rare flushes and resets.
	for combo := range fuzzCombos {
		for threads := 0; threads < 2; threads++ {
			r := rng.New(uint64(combo*2 + threads))
			f.Add(seedStream(r, byte(combo), byte(r.Intn(24)), byte(threads), 1500))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := byteStream(data)
		replay(newTwin(t, fuzzConfig(in.next(), in.next()), 1+in.next()%2), &in)
	})
}

// Operation codes: replay reads an operation as a thread byte then a code
// byte, and takes the operation whose range holds the code, so most codes
// feed an instruction.
const (
	opStep     = 0   // one instruction: two parameter bytes
	opLookup   = 180 // one address byte
	opProbe    = 210 // one address byte
	opInval    = 220 // one code-line byte
	opFlush    = 228 // one address byte
	opTaken    = 236 // one address byte
	opRedirect = 242 // one address byte
	opFlushAll = 250
	opReset    = 253 // up to 255; two geometry bytes
)

// replay applies in's operations to tw until in runs out.
func replay(tw *twin, in *byteStream) {
	for !in.done() {
		th := tw.threads[in.next()%len(tw.threads)]
		switch op := in.next(); {
		case op < opLookup:
			x, y := in.next(), in.next()
			tw.step(th, uint8(1+x%4), uint8(x/4%2), uint8(1+y%15), x/8%8 == 0, y/16%5 == 0)
		case op < opProbe:
			tw.lookup(th.base+uint64(in.next()%48)*13, false)
		case op < opInval:
			tw.lookup(th.base+uint64(in.next()%48)*13, true)
		case op < opFlush:
			tw.invalidate(th.base + uint64(in.next()%12)*ICLineBytes)
		case op < opTaken:
			tw.flush(th, uint64(in.next()))
		case op < opRedirect:
			tw.terminateTaken(th, uint64(in.next()))
		case op < opFlushAll:
			tw.redirect(th, uint64(in.next()))
		case op < opReset:
			tw.flushAll()
		default:
			tw.reset(fuzzConfig(in.next(), in.next()))
		}
	}
}

// seedStream encodes a stream of n operations on the given policy,
// geometry and thread bytes, drawn with weights rather than uniformly so
// that sets fill, compact and evict between the rare flushes and resets.
func seedStream(r *rng.Source, combo, geometry, threads byte, n int) []byte {
	ops := [...]struct {
		code   byte
		params int
		weight float64
	}{
		{opStep, 2, 80}, {opLookup, 1, 8}, {opProbe, 1, 3}, {opInval, 1, 1.5},
		{opFlush, 1, 1.5}, {opTaken, 1, 1.5}, {opRedirect, 1, 1.5},
		{opFlushAll, 0, 0.1}, {opReset, 2, 0.1},
	}
	weights := make([]float64, len(ops))
	for i, o := range ops {
		weights[i] = o.weight
	}
	data := []byte{combo, geometry, threads}
	for i := 0; i < n; i++ {
		o := ops[r.Choose(weights)]
		data = append(data, byte(r.Intn(2)), o.code)
		for k := 0; k < o.params; k++ {
			data = append(data, byte(r.Intn(256)))
		}
	}
	return data
}

// fuzzCombos are the valid (policy, entries per line) pairs: compaction
// needs room for a second entry. The bounds at and above maxLineEntries
// exercise the cache's slot array, which is sized by a line's bytes rather
// than by the configured bound.
var fuzzCombos = [...]struct {
	alloc Alloc
	maxE  int
}{
	{AllocNone, 1}, {AllocNone, 2}, {AllocNone, 3},
	{AllocRAC, 2}, {AllocRAC, 3}, {AllocPWAC, 2}, {AllocPWAC, 3},
	{AllocFPWAC, 2}, {AllocFPWAC, 3},
	{AllocNone, math.MaxInt}, {AllocRAC, maxLineEntries}, {AllocRAC, math.MaxInt},
	{AllocPWAC, math.MaxInt}, {AllocFPWAC, math.MaxInt},
}

// fuzzConfig decodes two bytes into a small valid geometry: 64 to 256 uops
// (8 to 32 lines) of 1 to 8 ways, so sets fill and evict quickly.
func fuzzConfig(a, b int) Config {
	combo := fuzzCombos[a%len(fuzzCombos)]
	return Config{
		CapacityUops:      64 << (b / 4 % 3),
		Ways:              1 << (b % 4),
		MaxEntriesPerLine: combo.maxE,
		Alloc:             combo.alloc,
		MaxICLines:        1 + b/12%2,
	}
}

// byteStream reads a fuzz input one byte at a time, then zeros.
type byteStream []byte

func (s *byteStream) done() bool { return len(*s) == 0 }

func (s *byteStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// twin replays one operation stream into a Cache and a refCache. Each side
// has its own builders; what they emit is recorded and then filled.
type twin struct {
	t           testing.TB
	c           *Cache
	ref         *refCache
	reg, refReg *stats.Registry
	threads     []*twinThread
	ops         int

	// emitted and refEmitted hold the entries each side's builders emitted
	// during the current operation; last holds the Cache side's latest fill
	// of each start address.
	emitted, refEmitted []Entry
	last                map[uint64]Entry
}

// twinThread is one instruction stream, as an SMT thread is; each thread's
// code region lies apart from the other's.
type twinThread struct {
	b        *Builder
	rb       *refBuilder
	base     uint64
	addr     uint64
	pw       uint64
	instance uint64
	nextID   uint32
}

// newTwin builds both caches on cfg, filled by n threads.
func newTwin(t testing.TB, cfg Config, n int) *twin {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tw := &twin{
		t: t, c: c, ref: newRefCache(cfg, NewStats()),
		reg: stats.NewRegistry(), refReg: stats.NewRegistry(),
		last: map[uint64]Entry{},
	}
	tw.c.Stats.Register(tw.reg.Scope("oc"))
	tw.ref.Stats.Register(tw.refReg.Scope("oc"))
	for i := 0; i < n; i++ {
		th := &twinThread{base: 0x10000 + uint64(i)*0x80000}
		th.jump(0)
		tw.threads = append(tw.threads, th)
	}
	tw.newBuilders()
	return tw
}

// newBuilders gives every thread a fresh builder on each side, as a new
// simulator on a reset cache gets.
func (tw *twin) newBuilders() {
	limits := DefaultLimits()
	limits.MaxICLines = tw.c.Config().MaxICLines
	for _, th := range tw.threads {
		th.b = NewBuilder(limits, tw.c, func(e *Entry) {
			tw.emitted = append(tw.emitted, *e)
			tw.last[e.Start] = *e
			tw.c.Fill(e)
		})
		th.rb = newRefBuilder(limits, tw.ref, func(e *Entry) {
			tw.refEmitted = append(tw.refEmitted, *e)
			tw.ref.Fill(e)
		})
	}
}

// jump starts a new prediction window at one of 48 hot addresses, so
// re-decodes of the same start exercise dedupe.
func (th *twinThread) jump(k uint64) {
	th.addr = th.base + k%48*13
	th.pw = th.addr
	th.instance++
}

// step feeds one instruction to th's builders on both sides.
func (tw *twin) step(th *twinThread, uops, imm, length uint8, ucoded, taken bool) {
	in := mkInst(th.nextID, th.addr, length, uops, imm, ucoded)
	th.nextID++
	th.b.Add(in, th.pw, th.instance, taken)
	th.rb.Add(in, th.pw, th.instance, taken)
	th.addr = in.End()
	if taken {
		th.jump(uint64(th.nextID) * 7)
	}
	tw.check("step")
}

// flush drops th's partial entry (a pipeline redirect) and moves it to a
// new window.
func (tw *twin) flush(th *twinThread, k uint64) {
	th.b.Flush()
	th.rb.Flush()
	th.jump(k)
	tw.check("flush")
}

// terminateTaken closes th's open entry as taken, as a decode-time redirect
// does, and moves it to a new window.
func (tw *twin) terminateTaken(th *twinThread, k uint64) {
	th.b.TerminateTaken()
	th.rb.TerminateTaken()
	th.jump(k)
	tw.check("terminate-taken")
}

// redirect moves th to a new window without telling its builders, so the
// next instruction is not contiguous with the open entry.
func (tw *twin) redirect(th *twinThread, k uint64) {
	th.jump(k)
	tw.check("redirect")
}

func (tw *twin) lookup(addr uint64, probe bool) {
	var e, re *Entry
	var ok, rok bool
	if probe {
		e, ok = tw.c.Probe(addr)
		re, rok = tw.ref.Probe(addr)
	} else {
		e, ok = tw.c.Lookup(addr)
		re, rok = tw.ref.Lookup(addr)
	}
	if ok != rok || ok && (*e != *re || !slices.Equal(e.InstIDs(), re.InstIDs())) {
		tw.t.Fatalf("op %d (probe=%v %#x): got %v %+v, reference %v %+v", tw.ops, probe, addr, ok, e, rok, re)
	}
	tw.check("lookup")
}

func (tw *twin) invalidate(lineAddr uint64) {
	if n, rn := tw.c.InvalidateCodeLine(lineAddr), tw.ref.InvalidateCodeLine(lineAddr); n != rn {
		tw.t.Fatalf("op %d: invalidating %#x removed %d entries, reference %d", tw.ops, lineAddr, n, rn)
	}
	tw.check("invalidate")
}

func (tw *twin) flushAll() {
	tw.c.FlushAll()
	tw.ref.FlushAll()
	tw.check("flush-all")
}

// reset re-geometries both caches mid-stream, as a recycled simulator core
// does, and gives the threads new builders. The reference resets its Stats
// in place by hand, so a Stats.reset that misses a field shows.
func (tw *twin) reset(cfg Config) {
	if err := tw.c.Reset(cfg); err != nil {
		tw.t.Fatal(err)
	}
	st := tw.ref.Stats
	st.SizeHist.Reset()
	*st = Stats{SizeHist: st.SizeHist}
	*tw.ref = *newRefCache(cfg, st)
	clear(tw.last)
	tw.newBuilders()
	tw.check("reset")
}

// check fails the test unless both sides emitted the same entries during
// the operation and agree on every Stats instrument, on the resident
// entries, uops and utilization, on each line's replacement tick and
// entries in fill order, and on each builder's abandoned count, and unless
// the Cache's slots pass checkSlots.
func (tw *twin) check(what string) {
	tw.t.Helper()
	tw.ops++
	if !slices.Equal(tw.emitted, tw.refEmitted) {
		tw.t.Fatalf("op %d (%s): emitted %+v, reference %+v", tw.ops, what, tw.emitted, tw.refEmitted)
	}
	tw.emitted, tw.refEmitted = tw.emitted[:0], tw.refEmitted[:0]
	if got, want := tw.reg.Snapshot(), tw.refReg.Snapshot(); !reflect.DeepEqual(got, want) {
		tw.t.Fatalf("op %d (%s): stats differ from the reference:\n%s", tw.ops, what, snapshotDiff(got, want))
	}
	c, r := tw.c, tw.ref
	if c.ResidentEntries() != r.ResidentEntries() || c.ResidentUops() != r.ResidentUops() || c.Utilization() != r.Utilization() {
		tw.t.Fatalf("op %d (%s): resident entries/uops/utilization %d/%d/%v, reference %d/%d/%v", tw.ops, what,
			c.ResidentEntries(), c.ResidentUops(), c.Utilization(), r.ResidentEntries(), r.ResidentUops(), r.Utilization())
	}
	for i := range c.lines {
		es, rl := c.entries(i), &r.lines[i]
		same := c.lines[i].tick == rl.tick && len(es) == len(rl.entries)
		for j := 0; same && j < len(es); j++ {
			same = es[j] == *rl.entries[j]
		}
		if !same {
			tw.t.Fatalf("op %d (%s): line %d holds %d entries at tick %d, reference %d at tick %d (or another order)", tw.ops, what,
				i, len(es), c.lines[i].tick, len(rl.entries), rl.tick)
		}
	}
	for i, th := range tw.threads {
		if th.b.Abandoned() != th.rb.abandoned {
			tw.t.Fatalf("op %d (%s): thread %d abandoned %d entries, reference %d", tw.ops, what, i, th.b.Abandoned(), th.rb.abandoned)
		}
	}
	tw.checkSlots(what)
}

// checkSlots verifies slot integrity: every resident entry holds exactly
// what its start address was last filled with, appears once, and sits in
// its own set, and no line holds more than MaxEntriesPerLine entries or
// LineBytes bytes. So a slot that eviction, dedupe, invalidation or F-PWAC
// relocation rewrote never leaves a stale or torn entry behind.
func (tw *twin) checkSlots(what string) {
	tw.t.Helper()
	c := tw.c
	seen := map[uint64]bool{}
	for set := 0; set < c.Sets(); set++ {
		lo, hi := c.setLines(set)
		for i := lo; i < hi; i++ {
			if len(c.entries(i)) > c.cfg.MaxEntriesPerLine || c.usedBytes(i) > LineBytes {
				tw.t.Fatalf("op %d (%s): line %d holds %d entries in %d bytes", tw.ops, what, i, len(c.entries(i)), c.usedBytes(i))
			}
			for _, e := range c.entries(i) {
				if seen[e.Start] {
					tw.t.Fatalf("op %d (%s): entry %#x resident twice", tw.ops, what, e.Start)
				}
				seen[e.Start] = true
				if f, ok := tw.last[e.Start]; !ok || e != f {
					tw.t.Fatalf("op %d (%s): resident entry %+v, last filled %+v", tw.ops, what, e, f)
				}
				if c.setOf(e.Start) != set {
					tw.t.Fatalf("op %d (%s): entry %#x resident in set %d", tw.ops, what, e.Start, set)
				}
			}
		}
	}
}

// snapshotDiff lists the samples of two snapshots that differ.
func snapshotDiff(got, want stats.Snapshot) string {
	out := ""
	for _, g := range got.Samples {
		if w, ok := want.Sample(g.Path); !ok || !reflect.DeepEqual(g, w) {
			out += fmt.Sprintf("  %s: %+v, reference %+v\n", g.Path, g, w)
		}
	}
	return out
}

// The rest of this file is the reference: the uop cache as it was before
// its storage became slot-addressed, with lines of *Entry slices, entries
// recycled through a free list the cache owns, and a builder that takes its
// open entry from that list. It encodes the same reading of the paper's
// policies as cache.go, so it catches a change of behaviour, not a
// misreading of the paper.

// newRefCache builds the reference cache of cfg, counting into st (so a
// reset keeps the Stats object its builders hold, as Cache.Reset does).
func newRefCache(cfg Config, st *Stats) *refCache {
	sets := cfg.CapacityUops / 8 / cfg.Ways
	return &refCache{cfg: cfg, sets: sets, lines: make([]refLine, sets*cfg.Ways), Stats: st}
}

// refLine holds its entries by pointer.
type refLine struct {
	entries []*Entry
	tick    uint64 // shared replacement state for the whole line (§V-B)
}

func (l *refLine) usedBytes() int {
	n := 0
	for _, e := range l.entries {
		n += e.Bytes()
	}
	return n
}

func (l *refLine) fits(e *Entry, maxEntries int) bool {
	return len(l.entries) < maxEntries && l.usedBytes()+e.Bytes() <= LineBytes
}

// refCache is the pointer-based set-associative uop cache.
type refCache struct {
	cfg   Config
	sets  int
	lines []refLine // sets * ways
	tick  uint64

	// free holds entries the cache has dropped (evicted, deduped,
	// invalidated or flushed) for the builders that fill it to rebuild.
	free []*Entry

	// Stats is the observable sink; never nil.
	Stats *Stats
}

func (c *refCache) setOf(addr uint64) int {
	return int(addr>>6) & (c.sets - 1)
}

func (c *refCache) setLines(set int) []refLine {
	return c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
}

func (c *refCache) touch(l *refLine) {
	c.tick++
	l.tick = c.tick
}

// release returns a dropped entry to the free list.
func (c *refCache) release(e *Entry) { c.free = append(c.free, e) }

// takeEntry pops a zeroed entry from the free list, allocating when empty.
func (c *refCache) takeEntry() *Entry {
	n := len(c.free)
	if n == 0 {
		return new(Entry)
	}
	e := c.free[n-1]
	c.free = c.free[:n-1]
	*e = Entry{}
	return e
}

// Lookup finds the entry starting exactly at addr (the PW fetch address) and
// promotes its line. The hit entry is returned by pointer; callers must not
// mutate it, and must not hold it past the next Fill, InvalidateCodeLine or
// FlushAll, which may drop it and recycle its storage.
func (c *refCache) Lookup(addr uint64) (*Entry, bool) {
	c.Stats.Lookups.Inc()
	ways := c.setLines(c.setOf(addr))
	for w := range ways {
		for _, e := range ways[w].entries {
			if e.Start == addr {
				c.touch(&ways[w])
				c.Stats.Hits.Inc()
				return e, true
			}
		}
	}
	return nil, false
}

// Probe reports whether an entry starting at addr exists, without touching
// replacement state or counters. The returned pointer is valid as Lookup's.
func (c *refCache) Probe(addr uint64) (*Entry, bool) {
	ways := c.setLines(c.setOf(addr))
	for w := range ways {
		for _, e := range ways[w].entries {
			if e.Start == addr {
				return e, true
			}
		}
	}
	return nil, false
}

// Fill installs a terminated entry according to the configured allocation
// policy. Entries wider than a line are rejected (builder bug guard). Fill
// takes ownership of e: once the cache drops it, its storage is recycled.
func (c *refCache) Fill(e *Entry) {
	if e.Bytes() > LineBytes {
		panic(fmt.Sprintf("uopcache: entry of %d bytes exceeds line", e.Bytes()))
	}
	c.Stats.noteFillShape(e)

	set := c.setOf(e.Start)
	c.dedupe(set, e)

	switch c.cfg.Alloc {
	case AllocNone:
		c.fillAlone(set, e)
	case AllocRAC:
		if !c.tryRAC(set, e) {
			c.fillAlone(set, e)
		}
	case AllocPWAC:
		if c.tryPWAC(set, e) {
			return
		}
		if !c.tryRAC(set, e) {
			c.fillAlone(set, e)
		}
	case AllocFPWAC:
		if c.tryPWAC(set, e) {
			return
		}
		if c.tryForcedPWAC(set, e) {
			return
		}
		if !c.tryRAC(set, e) {
			c.fillAlone(set, e)
		}
	}
}

// dedupe removes a stale entry with the same start address (re-decode after
// a wrong-path fill or a changed entry shape).
func (c *refCache) dedupe(set int, e *Entry) {
	ways := c.setLines(set)
	for w := range ways {
		l := &ways[w]
		for i, old := range l.entries {
			if old.Start == e.Start {
				l.entries = append(l.entries[:i], l.entries[i+1:]...)
				c.release(old)
				c.Stats.FillsDeduped.Inc()
				return
			}
		}
	}
}

// fillAlone evicts a whole victim line and installs e as its only entry.
func (c *refCache) fillAlone(set int, e *Entry) {
	ways := c.setLines(set)
	victim := -1
	for w := range ways {
		if len(ways[w].entries) == 0 {
			victim = w
			break
		}
	}
	if victim == -1 {
		victim = 0
		for w := 1; w < len(ways); w++ {
			if ways[w].tick < ways[victim].tick {
				victim = w
			}
		}
		c.Stats.LineEvictions.Inc()
		c.Stats.EntryEvict.Add(uint64(len(ways[victim].entries)))
	}
	l := &ways[victim]
	for _, old := range l.entries {
		c.release(old)
	}
	l.entries = l.entries[:0]
	l.entries = append(l.entries, e)
	c.touch(l)
	c.Stats.FillsAlone.Inc()
}

// tryRAC compacts e into the most recently used line of the set with room.
func (c *refCache) tryRAC(set int, e *Entry) bool {
	ways := c.setLines(set)
	best := -1
	for w := range ways {
		l := &ways[w]
		if len(l.entries) == 0 || !l.fits(e, c.cfg.MaxEntriesPerLine) {
			continue
		}
		if best == -1 || l.tick > ways[best].tick {
			best = w
		}
	}
	if best == -1 {
		return false
	}
	l := &ways[best]
	l.entries = append(l.entries, e)
	c.touch(l)
	c.Stats.FillsCompact.Inc()
	c.Stats.AllocRAC.Inc()
	return true
}

// tryPWAC compacts e into a line already holding an entry of the same PW.
func (c *refCache) tryPWAC(set int, e *Entry) bool {
	ways := c.setLines(set)
	for w := range ways {
		l := &ways[w]
		if !c.hasPW(l, e.PWID) || !l.fits(e, c.cfg.MaxEntriesPerLine) {
			continue
		}
		l.entries = append(l.entries, e)
		c.touch(l)
		c.Stats.FillsCompact.Inc()
		c.Stats.AllocPWAC.Inc()
		return true
	}
	return false
}

// tryForcedPWAC implements §V-B3 (Fig 14): when an entry S of the same PW is
// compacted in a line X that has no room, keep S and e together in X and
// move X's foreign entries to the LRU line (whose victims are evicted and
// whose replacement state is then refreshed).
func (c *refCache) tryForcedPWAC(set int, e *Entry) bool {
	ways := c.setLines(set)
	for w := range ways {
		l := &ways[w]
		si := c.samePWIndex(l, e.PWID)
		if si < 0 || len(l.entries) < 2 {
			continue
		}
		s := l.entries[si]
		if s.Bytes()+e.Bytes() > LineBytes || c.cfg.MaxEntriesPerLine < 2 {
			continue
		}
		// Find the LRU line among the others to receive X's foreign entries.
		lru := -1
		for w2 := range ways {
			if w2 == w {
				continue
			}
			if lru == -1 || ways[w2].tick < ways[lru].tick {
				lru = w2
			}
		}
		if lru == -1 {
			continue // single-way cache: cannot relocate
		}
		dst := &ways[lru]
		if len(dst.entries) > 0 {
			c.Stats.LineEvictions.Inc()
			c.Stats.EntryEvict.Add(uint64(len(dst.entries)))
		}
		for _, old := range dst.entries {
			c.release(old)
		}
		dst.entries = dst.entries[:0]
		for i, old := range l.entries {
			if i != si {
				dst.entries = append(dst.entries, old)
			}
		}
		c.touch(dst) // paper: replacement info of the relocated line is updated

		l.entries = l.entries[:0]
		l.entries = append(l.entries, s, e)
		c.touch(l)
		c.Stats.FillsCompact.Inc()
		c.Stats.AllocFPWAC.Inc()
		return true
	}
	return false
}

func (c *refCache) hasPW(l *refLine, pwid uint64) bool { return c.samePWIndex(l, pwid) >= 0 }

func (c *refCache) samePWIndex(l *refLine, pwid uint64) int {
	for i, e := range l.entries {
		if e.PWID == pwid {
			return i
		}
	}
	return -1
}

// InvalidateCodeLine performs an SMC invalidating probe for the 64B code
// line at lineAddr: every entry containing bytes of that line is removed.
// With CLASP (MaxICLines > 1) entries starting in up to MaxICLines-1
// preceding lines can overlap, so the preceding sets are probed too (§V-A).
// It returns the number of entries invalidated.
func (c *refCache) InvalidateCodeLine(lineAddr uint64) int {
	lineAddr &^= uint64(ICLineBytes - 1)
	invalidated := 0
	for k := 0; k < c.cfg.MaxICLines; k++ {
		probe := lineAddr - uint64(k*ICLineBytes)
		c.Stats.InvalProbes.Inc()
		ways := c.setLines(c.setOf(probe))
		for w := range ways {
			l := &ways[w]
			kept := l.entries[:0]
			for _, e := range l.entries {
				if e.OverlapsLine(lineAddr) {
					invalidated++
					c.release(e)
				} else {
					kept = append(kept, e)
				}
			}
			l.entries = kept
		}
	}
	c.Stats.InvalEntries.Add(uint64(invalidated))
	return invalidated
}

// FlushAll empties the cache (used by tests and SMC fallback comparisons).
func (c *refCache) FlushAll() {
	for i := range c.lines {
		for _, e := range c.lines[i].entries {
			c.release(e)
		}
		c.lines[i].entries = c.lines[i].entries[:0]
		c.lines[i].tick = 0
	}
}

// ResidentEntries counts entries currently cached (diagnostics).
func (c *refCache) ResidentEntries() int {
	n := 0
	for i := range c.lines {
		n += len(c.lines[i].entries)
	}
	return n
}

// ResidentUops counts uops currently cached (utilization diagnostics).
func (c *refCache) ResidentUops() int {
	n := 0
	for i := range c.lines {
		for _, e := range c.lines[i].entries {
			n += int(e.NumUops)
		}
	}
	return n
}

// Utilization returns the fraction of line bytes currently holding uop or
// imm/disp payload (fragmentation diagnostic).
func (c *refCache) Utilization() float64 {
	used := 0
	for i := range c.lines {
		used += c.lines[i].usedBytes()
	}
	return float64(used) / float64(len(c.lines)*LineBytes)
}

// refBuilder builds entries from the reference cache's free list.
type refBuilder struct {
	limits BuildLimits

	open      *Entry
	openLines int // I-cache lines touched by the open entry
	// cache supplies new entries from its free list and takes back the
	// ones a flush abandons.
	cache *refCache

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

// newRefBuilder creates a builder that fills c: it takes new entries from c's
// free list, emit is invoked for every terminated entry and must install it
// into c (which recycles an entry once it drops it), and per-PW
// distribution statistics are recorded in c.Stats. Several builders may fill
// one cache (SMT threads sharing it).
func newRefBuilder(limits BuildLimits, c *refCache, emit func(*Entry)) *refBuilder {
	if limits.MaxICLines < 1 {
		limits.MaxICLines = 1
	}
	return &refBuilder{limits: limits, cache: c, stats: c.Stats, emit: emit}
}

// Add pushes one decoded instruction into the accumulation buffer.
// pwID identifies the prediction window the instruction was fetched under
// (its start address, stable across dynamic instances), pwInstance is a
// unique number per dynamic PW (Fig 12 accounting), and predictedTaken marks
// instructions that end their PW as a predicted taken branch (which also
// terminates the entry).

func (b *refBuilder) Add(in *isa.Inst, pwID, pwInstance uint64, predictedTaken bool) {
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
		if in.Addr() != b.open.End {
			b.terminate(TermTakenBranch)
		}
	}
	if b.open != nil {
		// I-cache line boundary (relaxed to MaxICLines under CLASP).
		if icLine(in.Addr()) != icLine(b.open.Start) {
			linesSpanned := int((icLine(in.Addr())-icLine(b.open.Start))/ICLineBytes) + 1
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
		b.open.Start, b.open.End, b.open.PWID = in.Addr(), in.Addr(), pwID
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
	if icLine(in.Addr()) != icLine(e.Start) {
		e.SpansBoundary = true
	}

	if predictedTaken {
		e.EndsTaken = true
		b.terminate(TermTakenBranch)
	}
}

func (b *refBuilder) terminate(reason TermReason) {
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
func (b *refBuilder) TerminateTaken() {
	if b.open != nil {
		b.open.EndsTaken = true
		b.terminate(TermTakenBranch)
	}
}

// Flush discards any partial entry (pipeline redirect). Real hardware drops
// the accumulation buffer contents on a flush rather than installing a
// half-built entry. The abandoned entry goes back to the cache's free list,
// so the next entry built reuses it.
func (b *refBuilder) Flush() {
	if b.open != nil {
		if b.open.nInsts > 0 {
			b.abandoned++
		}
		b.cache.release(b.open)
	}
	b.open = nil
	b.openLines = 0
}
