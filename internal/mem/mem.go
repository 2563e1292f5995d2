// Package mem models the three-level cache hierarchy plus DRAM of Table I as
// a latency oracle: given an address, it walks L1→L2→L3→DRAM, fills on the
// way back, and returns the access latency in cycles. Simple next-line
// prefetchers cut the miss streaks of sequential code and striding data.
package mem

import (
	"uopsim/internal/cache"
	"uopsim/internal/stats"
)

// Latencies in core cycles at 3 GHz (Table I: off-chip DRAM 2400 MHz).
const (
	LatL1  = 4
	LatL2  = 14
	LatL3  = 40
	LatMem = 170
)

// Hierarchy is the shared L2/L3/DRAM backing both the I-side and D-side L1s.
type Hierarchy struct {
	L1I *cache.Cache
	L1D *cache.Cache
	L2  *cache.Cache
	L3  *cache.Cache

	// IPrefetchDepth is how many sequential lines the branch-prediction
	// directed I-prefetcher pulls toward L1I on an I-side access.
	IPrefetchDepth int
	// DPrefetch enables next-line data prefetch into L2 on L1D misses.
	DPrefetch bool

	dramAccesses stats.Counter
}

// RegisterMetrics publishes per-level hit/miss/eviction counters and the
// DRAM access counter under sc (expected mount point: "mem"). The cache
// levels keep their own plain counts; the registry reads them through
// closures at snapshot time.
func (h *Hierarchy) RegisterMetrics(sc stats.Scope) {
	level := func(name string, c *cache.Cache) {
		lsc := sc.Scope(name)
		lsc.RegisterCounter("hits", stats.CounterFunc(func() uint64 { n, _, _ := c.Stats(); return n }))
		lsc.RegisterCounter("misses", stats.CounterFunc(func() uint64 { _, n, _ := c.Stats(); return n }))
		lsc.RegisterCounter("evictions", stats.CounterFunc(func() uint64 { _, _, n := c.Stats(); return n }))
	}
	level("l1i", h.L1I)
	level("l1d", h.L1D)
	level("l2", h.L2)
	level("l3", h.L3)
	sc.RegisterCounter("dram.accesses", &h.dramAccesses)
}

// Config sizes the hierarchy.
type Config struct {
	L1IBytes, L1IWays int
	L1DBytes, L1DWays int
	L2Bytes, L2Ways   int
	L3Bytes, L3Ways   int
	LineBytes         int
	IPrefetchDepth    int
	DPrefetch         bool
}

// DefaultConfig mirrors Table I: 32KB/8-way L1I, 32KB/4-way L1D, 512KB/8-way
// L2 (unified), 2MB/16-way L3 with RRIP.
func DefaultConfig() Config {
	return Config{
		L1IBytes: 32 << 10, L1IWays: 8,
		L1DBytes: 32 << 10, L1DWays: 4,
		L2Bytes: 512 << 10, L2Ways: 8,
		L3Bytes: 2 << 20, L3Ways: 16,
		LineBytes:      64,
		IPrefetchDepth: 2,
		DPrefetch:      true,
	}
}

// New builds the hierarchy.
func New(cfg Config) *Hierarchy {
	h := &Hierarchy{}
	h.Reset(cfg)
	return h
}

// Reset makes h an empty hierarchy sized by cfg, as New would build it,
// reusing each level's line arrays when its geometry is unchanged.
func (h *Hierarchy) Reset(cfg Config) {
	level := func(c *cache.Cache, bytes, ways int, repl cache.Replacement) *cache.Cache {
		if c == nil {
			c = &cache.Cache{}
		}
		c.Reset(cache.Config{SizeBytes: bytes, Ways: ways, LineBytes: cfg.LineBytes, Repl: repl})
		return c
	}
	*h = Hierarchy{
		L1I: level(h.L1I, cfg.L1IBytes, cfg.L1IWays, cache.LRU),
		L1D: level(h.L1D, cfg.L1DBytes, cfg.L1DWays, cache.LRU),
		L2:  level(h.L2, cfg.L2Bytes, cfg.L2Ways, cache.LRU),
		L3:  level(h.L3, cfg.L3Bytes, cfg.L3Ways, cache.RRIP),

		IPrefetchDepth: cfg.IPrefetchDepth,
		DPrefetch:      cfg.DPrefetch,
	}
}

// FetchInst returns the latency of fetching the instruction line at addr and
// fills the I-side path. The branch-prediction-directed prefetcher drags the
// next IPrefetchDepth sequential lines toward L1I.
func (h *Hierarchy) FetchInst(addr uint64) int {
	lat := h.instLine(addr)
	for i := 1; i <= h.IPrefetchDepth; i++ {
		h.prefetchInstLine(addr + uint64(64*i))
	}
	return lat
}

func (h *Hierarchy) instLine(addr uint64) int {
	if h.L1I.Lookup(addr) {
		return 0 // pipelined L1I hit: no extra bubble beyond the fetch stage
	}
	lat := LatL2 - LatL1
	if !h.L2.Lookup(addr) {
		lat = LatL3 - LatL1
		if !h.L3.Lookup(addr) {
			lat = LatMem - LatL1
			h.dramAccesses.Inc()
			h.L3.Fill(addr)
		}
		h.L2.Fill(addr)
	}
	h.L1I.Fill(addr)
	return lat
}

// PrefetchInst pulls the line at addr toward L1I without occupying the fetch
// port (branch-prediction-directed prefetch: the BPU runs ahead of fetch and
// prefetches the lines of each prediction window it emits).
func (h *Hierarchy) PrefetchInst(addr uint64) { h.prefetchInstLine(addr) }

func (h *Hierarchy) prefetchInstLine(addr uint64) {
	if h.L1I.Probe(addr) {
		return
	}
	// Prefetches are modeled as free-bandwidth fills from the closest level
	// that has the line; a DRAM prefetch also installs into L3/L2.
	if !h.L2.Probe(addr) {
		if !h.L3.Probe(addr) {
			h.dramAccesses.Inc()
			h.L3.Fill(addr)
		}
		h.L2.Fill(addr)
	}
	h.L1I.Fill(addr)
}

// Load returns the latency of a data load at addr, filling the D-side path.
func (h *Hierarchy) Load(addr uint64) int {
	if h.L1D.Lookup(addr) {
		return LatL1
	}
	lat := LatL2
	if !h.L2.Lookup(addr) {
		lat = LatL3
		if !h.L3.Lookup(addr) {
			lat = LatMem
			h.dramAccesses.Inc()
			h.L3.Fill(addr)
		}
		h.L2.Fill(addr)
		if h.DPrefetch {
			h.prefetchDataLine(addr + 64)
		}
	}
	h.L1D.Fill(addr)
	return lat
}

// Store performs the cache-state effects of a store; with a write buffer the
// latency is hidden, so only the fill side effects matter.
func (h *Hierarchy) Store(addr uint64) {
	if h.L1D.Lookup(addr) {
		return
	}
	if !h.L2.Lookup(addr) {
		if !h.L3.Lookup(addr) {
			h.dramAccesses.Inc()
			h.L3.Fill(addr)
		}
		h.L2.Fill(addr)
	}
	h.L1D.Fill(addr)
}

func (h *Hierarchy) prefetchDataLine(addr uint64) {
	if h.L2.Probe(addr) {
		return
	}
	if !h.L3.Probe(addr) {
		h.dramAccesses.Inc()
		h.L3.Fill(addr)
	}
	h.L2.Fill(addr)
}

// DRAMAccesses returns the number of DRAM line transfers (stats).
func (h *Hierarchy) DRAMAccesses() uint64 { return h.dramAccesses.Value() }
