// Package cache provides the set-associative cache structure shared by the
// instruction cache, data caches and (as a building block) the uop cache's
// tag organization, with pluggable replacement (true LRU and RRIP).
package cache

import (
	"fmt"

	"uopsim/internal/reuse"
)

// Replacement selects victims within a set.
type Replacement uint8

const (
	// LRU is true least-recently-used replacement (Table I: L1/L2).
	LRU Replacement = iota
	// RRIP is static re-reference interval prediction (Table I: L3).
	RRIP
)

const rrpvMax = 3 // 2-bit RRPV

// Cache is a set-associative cache of 64-byte lines identified by line
// address (addr >> 6). It tracks only presence, not contents.
type Cache struct {
	sets, ways int
	lineShift  uint
	repl       Replacement

	// tags holds each way's line address plus one; 0 marks an empty way.
	tags []uint64
	// lru is each way's last-touch tick under LRU, and rrpv its 2-bit
	// re-reference prediction value under RRIP; the other one is nil.
	lru  []uint64
	rrpv []uint8
	tick uint64

	hits, misses, evictions uint64
}

// Config describes a cache structure.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LineBytes is the line size (must be a power of two).
	LineBytes int
	// Repl selects the replacement policy.
	Repl Replacement
}

// New builds a cache. It panics on geometry errors (construction-time
// programming mistakes, not runtime conditions).
func New(cfg Config) *Cache {
	c := &Cache{}
	c.Reset(cfg)
	return c
}

// Reset makes c an empty cache of geometry cfg, as New would build it. It
// reuses c's line arrays when cfg has as many lines and allocates them
// otherwise, so a recycled cache of the same geometry allocates nothing.
// It panics on the same geometry errors as New.
func (c *Cache) Reset(cfg Config) {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d not a power of two", cfg.LineBytes))
	}
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	n := sets * cfg.Ways
	old := *c
	*c = Cache{sets: sets, ways: cfg.Ways, lineShift: shift, repl: cfg.Repl, tags: reuse.Slice(old.tags, n)}
	if cfg.Repl == RRIP {
		c.rrpv = reuse.Slice(old.rrpv, n)
	} else {
		c.lru = reuse.Slice(old.lru, n)
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) set(addr uint64) int {
	return int(addr>>c.lineShift) & (c.sets - 1)
}

// lineTag is the tags entry of addr's line (never 0, the empty mark).
func (c *Cache) lineTag(addr uint64) uint64 { return addr>>c.lineShift + 1 }

// Lookup reports whether addr's line is present, updating replacement state
// on hit.
func (c *Cache) Lookup(addr uint64) bool {
	base := c.set(addr) * c.ways
	tag := c.lineTag(addr)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.tags[i] == tag {
			c.hits++
			c.touch(i)
			return true
		}
	}
	c.misses++
	return false
}

// Probe reports presence without updating replacement state or counters.
func (c *Cache) Probe(addr uint64) bool {
	base := c.set(addr) * c.ways
	tag := c.lineTag(addr)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.tags[i] == tag {
			return true
		}
	}
	return false
}

func (c *Cache) touch(i int) {
	switch c.repl {
	case LRU:
		c.tick++
		c.lru[i] = c.tick
	case RRIP:
		c.rrpv[i] = 0 // promote to near-immediate re-reference
	}
}

// Fill installs addr's line, evicting a victim if needed. It returns the
// evicted line address and whether an eviction occurred. Filling an already
// present line only refreshes replacement state.
func (c *Cache) Fill(addr uint64) (evicted uint64, wasEvicted bool) {
	base := c.set(addr) * c.ways
	tag := c.lineTag(addr)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.tags[i] == tag {
			c.touch(i)
			return 0, false
		}
	}
	victim := -1
	for w := 0; w < c.ways; w++ {
		if i := base + w; c.tags[i] == 0 {
			victim = i
			break
		}
	}
	if victim == -1 {
		victim = c.pickVictim(base)
		evicted = (c.tags[victim] - 1) << c.lineShift
		wasEvicted = true
		c.evictions++
	}
	c.tags[victim] = tag
	switch c.repl {
	case LRU:
		c.tick++
		c.lru[victim] = c.tick
	case RRIP:
		c.rrpv[victim] = rrpvMax - 1 // long re-reference interval on insert
	}
	return evicted, wasEvicted
}

func (c *Cache) pickVictim(base int) int {
	switch c.repl {
	case RRIP:
		for {
			for w := 0; w < c.ways; w++ {
				if c.rrpv[base+w] >= rrpvMax {
					return base + w
				}
			}
			for w := 0; w < c.ways; w++ {
				c.rrpv[base+w]++
			}
		}
	default: // LRU
		victim := base
		for w := 1; w < c.ways; w++ {
			if c.lru[base+w] < c.lru[victim] {
				victim = base + w
			}
		}
		return victim
	}
}

// Invalidate removes addr's line if present, returning whether it was.
func (c *Cache) Invalidate(addr uint64) bool {
	base := c.set(addr) * c.ways
	tag := c.lineTag(addr)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.tags[i] == tag {
			c.tags[i] = 0
			return true
		}
	}
	return false
}

// Stats returns (hits, misses, evictions).
func (c *Cache) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

// HitRate returns hits/(hits+misses), 0 when no accesses occurred.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
