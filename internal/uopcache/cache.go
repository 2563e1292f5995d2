package uopcache

import (
	"fmt"

	"uopsim/internal/reuse"
)

// Alloc selects the fill (compaction) policy of §V-B.
type Alloc uint8

const (
	// AllocNone is the baseline: one entry per line.
	AllocNone Alloc = iota
	// AllocRAC is Replacement-Aware Compaction: compact into the most
	// recently used line of the set that has room (§V-B1).
	AllocRAC
	// AllocPWAC is Prediction-Window-Aware Compaction: prefer a line
	// holding an entry of the same PW, falling back to RAC (§V-B2).
	AllocPWAC
	// AllocFPWAC is Forced PWAC: when the same-PW entry's line has no room
	// because it was compacted with a different PW's entry, read it out and
	// re-compact, moving the foreign entry to the LRU line (§V-B3).
	AllocFPWAC
)

var allocNames = []string{"baseline", "rac", "pwac", "f-pwac"}

// String names the policy.
func (a Alloc) String() string {
	if int(a) < len(allocNames) {
		return allocNames[a]
	}
	return fmt.Sprintf("alloc(%d)", uint8(a))
}

// Config sizes and configures a uop cache.
type Config struct {
	// CapacityUops is the nominal capacity in uops (Table I baseline: 2K =
	// 32 sets x 8 ways x 8 uops/line). Set count scales with capacity.
	CapacityUops int
	// Ways is the associativity (8).
	Ways int
	// MaxEntriesPerLine bounds compaction (1 = baseline/CLASP, 2 or 3 with
	// compaction; §VI-B1).
	MaxEntriesPerLine int
	// Alloc is the fill policy.
	Alloc Alloc
	// MaxICLines is the entry build span (1 baseline, 2 CLASP); the cache
	// needs it to know how many sets an SMC probe must search.
	MaxICLines int
}

// DefaultConfig returns the Table I baseline uop cache.
func DefaultConfig() Config {
	return Config{CapacityUops: 2048, Ways: 8, MaxEntriesPerLine: 1, Alloc: AllocNone, MaxICLines: 1}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Ways <= 0 {
		return fmt.Errorf("uopcache: ways must be positive")
	}
	lines := c.CapacityUops / 8
	sets := lines / c.Ways
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("uopcache: capacity %d uops yields invalid set count %d (need power of two)", c.CapacityUops, sets)
	}
	if c.MaxEntriesPerLine < 1 {
		return fmt.Errorf("uopcache: MaxEntriesPerLine must be >= 1")
	}
	if c.MaxEntriesPerLine == 1 && c.Alloc != AllocNone {
		return fmt.Errorf("uopcache: compaction policy %v requires MaxEntriesPerLine > 1", c.Alloc)
	}
	if c.MaxICLines < 1 {
		return fmt.Errorf("uopcache: MaxICLines must be >= 1")
	}
	return nil
}

// maxLineEntries is the most entries one line's bytes can hold: an entry
// has at least one uop and its ctr field (§II-B1), so a MaxEntriesPerLine
// above it changes nothing, and the slot array is sized by it instead.
const maxLineEntries = LineBytes / (UopBytes + CtrBytes)

// line is one way of one set. Its entries live in the cache's slot array
// (Cache.entries), in fill order.
type line struct {
	tick uint64 // shared replacement state for the whole line (§V-B)
	n    uint8  // entries held
}

// Cache is the set-associative uop cache. Its storage is fixed hardware, as
// in the paper: sets*ways lines, line i holding up to perLine entries in
// slots[i*perLine:][:n], where perLine is MaxEntriesPerLine clamped to
// maxLineEntries. A line is addressed by
// (set, way) as set*ways+way, and an entry by its line and slot, so filling,
// evicting, invalidating and relocating entries copies values between
// slots and never allocates.
type Cache struct {
	cfg     Config
	sets    int
	perLine int     // slots per line: min(MaxEntriesPerLine, maxLineEntries)
	lines   []line  // sets * ways, set-major
	slots   []Entry // len(lines) * perLine
	tick    uint64

	// Stats is the observable sink; never nil.
	Stats *Stats
}

// New builds a uop cache. Config must Validate.
func New(cfg Config) (*Cache, error) {
	c := new(Cache)
	if err := c.Reset(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset makes c the empty cache New(cfg) builds, with zeroed Stats. It
// keeps c's line and slot arrays when their capacity suffices and keeps
// c.Stats (reset in place, so builders made on c keep counting into it),
// so a recycled cache no larger than its predecessor allocates nothing. A
// cfg that does not Validate leaves c unchanged and returns the error.
func (c *Cache) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	sets := cfg.CapacityUops / 8 / cfg.Ways
	n := sets * cfg.Ways
	perLine := min(cfg.MaxEntriesPerLine, maxLineEntries)
	st := c.Stats
	if st == nil {
		st = NewStats()
	} else {
		st.reset()
	}
	*c = Cache{
		cfg:     cfg,
		sets:    sets,
		perLine: perLine,
		lines:   reuse.Cap(c.lines, n),
		slots:   reuse.Cap(c.slots, n*perLine),
		Stats:   st,
	}
	return nil
}

// Sets returns the set count.
func (c *Cache) Sets() int { return c.sets }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setOf(addr uint64) int {
	return int(addr>>6) & (c.sets - 1)
}

// setLines returns the index range [lo, hi) of set's lines.
func (c *Cache) setLines(set int) (lo, hi int) {
	lo = set * c.cfg.Ways
	return lo, lo + c.cfg.Ways
}

// entries returns line i's entries in fill order; the slice views the
// cache's slots.
func (c *Cache) entries(i int) []Entry {
	m := c.perLine
	return c.slots[i*m : i*m+int(c.lines[i].n)]
}

// push copies e into the next free slot of line i.
func (c *Cache) push(i int, e *Entry) {
	c.slots[i*c.perLine+int(c.lines[i].n)] = *e
	c.lines[i].n++
}

func (c *Cache) usedBytes(i int) int {
	es := c.entries(i)
	n := 0
	for j := range es {
		n += es[j].Bytes()
	}
	return n
}

func (c *Cache) fits(i int, e *Entry) bool {
	return int(c.lines[i].n) < c.perLine && c.usedBytes(i)+e.Bytes() <= LineBytes
}

func (c *Cache) touch(i int) {
	c.tick++
	c.lines[i].tick = c.tick
}

// find returns the line and slot holding the entry that starts at addr, or
// k = -1 when none does.
func (c *Cache) find(addr uint64) (i, k int) {
	lo, hi := c.setLines(c.setOf(addr))
	for i := lo; i < hi; i++ {
		es := c.entries(i)
		for j := range es {
			if es[j].Start == addr {
				return i, i*c.perLine + j
			}
		}
	}
	return -1, -1
}

// Lookup finds the entry starting exactly at addr (the PW fetch address) and
// promotes its line. The hit entry is returned by pointer into the cache's
// slots; callers must not mutate it, and must not hold it past the next
// Fill, InvalidateCodeLine, FlushAll or Reset, which may move another
// entry into its slot.
func (c *Cache) Lookup(addr uint64) (*Entry, bool) {
	c.Stats.Lookups.Inc()
	i, k := c.find(addr)
	if k < 0 {
		return nil, false
	}
	c.touch(i)
	c.Stats.Hits.Inc()
	return &c.slots[k], true
}

// Probe reports whether an entry starting at addr exists, without touching
// replacement state or counters. The returned pointer is valid as Lookup's.
func (c *Cache) Probe(addr uint64) (*Entry, bool) {
	if _, k := c.find(addr); k >= 0 {
		return &c.slots[k], true
	}
	return nil, false
}

// Fill installs a copy of the terminated entry e according to the
// configured allocation policy; the caller keeps e, which must not be one
// of c's own entries (a Lookup or Probe result). Entries wider than a line
// or without uops are rejected (builder bug guard).
func (c *Cache) Fill(e *Entry) {
	if e.Bytes() > LineBytes {
		panic(fmt.Sprintf("uopcache: entry of %d bytes exceeds line", e.Bytes()))
	}
	if e.NumUops == 0 {
		panic(fmt.Sprintf("uopcache: entry at %#x holds no uops", e.Start))
	}
	c.Stats.noteFillShape(e)

	set := c.setOf(e.Start)
	c.dedupe(e)

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
// a wrong-path fill or a changed entry shape), closing the gap so the
// line's remaining entries keep their fill order.
func (c *Cache) dedupe(e *Entry) {
	i, k := c.find(e.Start)
	if k < 0 {
		return
	}
	end := i*c.perLine + int(c.lines[i].n)
	copy(c.slots[k:end], c.slots[k+1:end])
	c.lines[i].n--
	c.Stats.FillsDeduped.Inc()
}

// fillAlone evicts a whole victim line and installs e as its only entry.
func (c *Cache) fillAlone(set int, e *Entry) {
	lo, hi := c.setLines(set)
	victim := -1
	for i := lo; i < hi; i++ {
		if c.lines[i].n == 0 {
			victim = i
			break
		}
	}
	if victim == -1 {
		victim = lo
		for i := lo + 1; i < hi; i++ {
			if c.lines[i].tick < c.lines[victim].tick {
				victim = i
			}
		}
		c.Stats.LineEvictions.Inc()
		c.Stats.EntryEvict.Add(uint64(c.lines[victim].n))
	}
	c.lines[victim].n = 0
	c.push(victim, e)
	c.touch(victim)
	c.Stats.FillsAlone.Inc()
}

// tryRAC compacts e into the most recently used line of the set with room.
func (c *Cache) tryRAC(set int, e *Entry) bool {
	lo, hi := c.setLines(set)
	best := -1
	for i := lo; i < hi; i++ {
		if c.lines[i].n == 0 || !c.fits(i, e) {
			continue
		}
		if best == -1 || c.lines[i].tick > c.lines[best].tick {
			best = i
		}
	}
	if best == -1 {
		return false
	}
	c.push(best, e)
	c.touch(best)
	c.Stats.FillsCompact.Inc()
	c.Stats.AllocRAC.Inc()
	return true
}

// tryPWAC compacts e into a line already holding an entry of the same PW.
func (c *Cache) tryPWAC(set int, e *Entry) bool {
	lo, hi := c.setLines(set)
	for i := lo; i < hi; i++ {
		if c.samePWIndex(i, e.PWID) < 0 || !c.fits(i, e) {
			continue
		}
		c.push(i, e)
		c.touch(i)
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
func (c *Cache) tryForcedPWAC(set int, e *Entry) bool {
	lo, hi := c.setLines(set)
	for x := lo; x < hi; x++ {
		si := c.samePWIndex(x, e.PWID)
		if si < 0 || c.lines[x].n < 2 {
			continue
		}
		s := c.entries(x)[si]
		if s.Bytes()+e.Bytes() > LineBytes || c.cfg.MaxEntriesPerLine < 2 {
			continue
		}
		// Find the LRU line among the others to receive X's foreign entries.
		lru := -1
		for i := lo; i < hi; i++ {
			if i == x {
				continue
			}
			if lru == -1 || c.lines[i].tick < c.lines[lru].tick {
				lru = i
			}
		}
		if lru == -1 {
			continue // single-way cache: cannot relocate
		}
		if n := c.lines[lru].n; n > 0 {
			c.Stats.LineEvictions.Inc()
			c.Stats.EntryEvict.Add(uint64(n))
		}
		c.lines[lru].n = 0
		for j := range c.entries(x) {
			if j != si {
				c.push(lru, &c.entries(x)[j])
			}
		}
		c.touch(lru) // paper: replacement info of the relocated line is updated

		c.lines[x].n = 0
		c.push(x, &s)
		c.push(x, e)
		c.touch(x)
		c.Stats.FillsCompact.Inc()
		c.Stats.AllocFPWAC.Inc()
		return true
	}
	return false
}

// samePWIndex returns the position in line i of its first entry of PW pwid,
// or -1.
func (c *Cache) samePWIndex(i int, pwid uint64) int {
	es := c.entries(i)
	for j := range es {
		if es[j].PWID == pwid {
			return j
		}
	}
	return -1
}

// InvalidateCodeLine performs an SMC invalidating probe for the 64B code
// line at lineAddr: every entry containing bytes of that line is removed.
// With CLASP (MaxICLines > 1) entries starting in up to MaxICLines-1
// preceding lines can overlap, so the preceding sets are probed too (§V-A).
// It returns the number of entries invalidated.
func (c *Cache) InvalidateCodeLine(lineAddr uint64) int {
	lineAddr &^= uint64(ICLineBytes - 1)
	invalidated := 0
	for k := 0; k < c.cfg.MaxICLines; k++ {
		probe := lineAddr - uint64(k*ICLineBytes)
		c.Stats.InvalProbes.Inc()
		lo, hi := c.setLines(c.setOf(probe))
		for i := lo; i < hi; i++ {
			es := c.entries(i)
			kept := 0
			for j := range es {
				if es[j].OverlapsLine(lineAddr) {
					invalidated++
					continue
				}
				es[kept] = es[j]
				kept++
			}
			c.lines[i].n = uint8(kept)
		}
	}
	c.Stats.InvalEntries.Add(uint64(invalidated))
	return invalidated
}

// FlushAll empties the cache (used by tests and SMC fallback comparisons).
func (c *Cache) FlushAll() { clear(c.lines) }

// ResidentEntries counts entries currently cached (diagnostics).
func (c *Cache) ResidentEntries() int {
	n := 0
	for _, l := range c.lines {
		n += int(l.n)
	}
	return n
}

// ResidentUops counts uops currently cached (utilization diagnostics).
func (c *Cache) ResidentUops() int {
	n := 0
	for i := range c.lines {
		es := c.entries(i)
		for j := range es {
			n += int(es[j].NumUops)
		}
	}
	return n
}

// Utilization returns the fraction of line bytes currently holding uop or
// imm/disp payload (fragmentation diagnostic).
func (c *Cache) Utilization() float64 {
	used := 0
	for i := range c.lines {
		used += c.usedBytes(i)
	}
	return float64(used) / float64(len(c.lines)*LineBytes)
}
