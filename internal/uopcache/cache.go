package uopcache

import "fmt"

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

type line struct {
	entries []*Entry
	tick    uint64 // shared replacement state for the whole line (§V-B)
}

func (l *line) usedBytes() int {
	n := 0
	for _, e := range l.entries {
		n += e.Bytes()
	}
	return n
}

func (l *line) fits(e *Entry, maxEntries int) bool {
	return len(l.entries) < maxEntries && l.usedBytes()+e.Bytes() <= LineBytes
}

// Cache is the set-associative uop cache.
type Cache struct {
	cfg   Config
	sets  int
	lines []line // sets * ways
	tick  uint64

	// free holds entries the cache has dropped (evicted, deduped,
	// invalidated or flushed) for the builders that fill it to rebuild. It lives here rather than in a builder because SMT threads
	// fill one shared cache through their own builders.
	free []*Entry

	// Stats is the observable sink; never nil.
	Stats *Stats
}

// New builds a uop cache. Config must Validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.CapacityUops / 8 / cfg.Ways
	return &Cache{
		cfg:   cfg,
		sets:  sets,
		lines: make([]line, sets*cfg.Ways),
		Stats: NewStats(),
	}, nil
}

// Sets returns the set count.
func (c *Cache) Sets() int { return c.sets }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setOf(addr uint64) int {
	return int(addr>>6) & (c.sets - 1)
}

func (c *Cache) setLines(set int) []line {
	return c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
}

func (c *Cache) touch(l *line) {
	c.tick++
	l.tick = c.tick
}

// release returns a dropped entry to the free list.
func (c *Cache) release(e *Entry) { c.free = append(c.free, e) }

// takeEntry pops a zeroed entry from the free list, allocating when empty.
func (c *Cache) takeEntry() *Entry {
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
func (c *Cache) Lookup(addr uint64) (*Entry, bool) {
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
func (c *Cache) Probe(addr uint64) (*Entry, bool) {
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
func (c *Cache) Fill(e *Entry) {
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
func (c *Cache) dedupe(set int, e *Entry) {
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
func (c *Cache) fillAlone(set int, e *Entry) {
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
func (c *Cache) tryRAC(set int, e *Entry) bool {
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
func (c *Cache) tryPWAC(set int, e *Entry) bool {
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
func (c *Cache) tryForcedPWAC(set int, e *Entry) bool {
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

func (c *Cache) hasPW(l *line, pwid uint64) bool { return c.samePWIndex(l, pwid) >= 0 }

func (c *Cache) samePWIndex(l *line, pwid uint64) int {
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
func (c *Cache) InvalidateCodeLine(lineAddr uint64) int {
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
func (c *Cache) FlushAll() {
	for i := range c.lines {
		for _, e := range c.lines[i].entries {
			c.release(e)
		}
		c.lines[i].entries = c.lines[i].entries[:0]
		c.lines[i].tick = 0
	}
}

// ResidentEntries counts entries currently cached (diagnostics).
func (c *Cache) ResidentEntries() int {
	n := 0
	for i := range c.lines {
		n += len(c.lines[i].entries)
	}
	return n
}

// ResidentUops counts uops currently cached (utilization diagnostics).
func (c *Cache) ResidentUops() int {
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
func (c *Cache) Utilization() float64 {
	used := 0
	for i := range c.lines {
		used += c.lines[i].usedBytes()
	}
	return float64(used) / float64(len(c.lines)*LineBytes)
}
