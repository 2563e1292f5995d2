package uopcache

import "uopsim/internal/stats"

// Stats aggregates the uop-cache observables behind the paper's figures.
type Stats struct {
	// Lookup side.
	Lookups stats.Counter
	Hits    stats.Counter

	// Fill side.
	Fills         stats.Counter // entries written
	FillsDeduped  stats.Counter // fills that replaced a same-start stale entry
	FillsCompact  stats.Counter // fills placed into a line already holding entries, no eviction (Fig 18)
	FillsAlone    stats.Counter // fills that took a whole line
	LineEvictions stats.Counter
	EntryEvict    stats.Counter

	// Allocation technique used per compacted fill (Fig 19).
	AllocRAC   stats.Counter
	AllocPWAC  stats.Counter
	AllocFPWAC stats.Counter

	// Entry shape at fill time.
	SizeHist    *stats.Histogram // Fig 5 buckets: [1-19], [20-39], [40-64] bytes
	TermCounts  [8]stats.Counter // Fig 6 by TermReason
	SpanEntries stats.Counter    // Fig 9: entries spanning I-cache line boundaries

	// EntriesPerPW is the Fig 12 distribution: how many entries each
	// dynamic prediction window's uops were written into.
	EntriesPerPW stats.Distribution

	// SMC invalidation probes.
	InvalProbes  stats.Counter
	InvalEntries stats.Counter
}

// NewStats builds a stats sink with the paper's Fig 5 size buckets.
func NewStats() *Stats {
	return &Stats{SizeHist: stats.NewHistogram(19, 39)}
}

// Register publishes every uop-cache instrument under sc (expected mount
// point: "oc"). All are counts, so a measured window of them alone
// rebuilds Figs 5/6/9/12/18/19: each figure's fraction is a ratio of two
// windowed counts (Fig 6's is entry.term.takenbranch over fills).
func (s *Stats) Register(sc stats.Scope) {
	sc.RegisterCounter("lookups", &s.Lookups)
	sc.RegisterCounter("hits", &s.Hits)

	sc.RegisterCounter("fills", &s.Fills)
	sc.RegisterCounter("fills.deduped", &s.FillsDeduped)
	sc.RegisterCounter("fills.compact", &s.FillsCompact)
	sc.RegisterCounter("fills.alone", &s.FillsAlone)
	sc.RegisterCounter("evict.lines", &s.LineEvictions)
	sc.RegisterCounter("evict.entries", &s.EntryEvict)

	sc.RegisterCounter("alloc.rac", &s.AllocRAC)
	sc.RegisterCounter("alloc.pwac", &s.AllocPWAC)
	sc.RegisterCounter("alloc.fpwac", &s.AllocFPWAC)

	sc.RegisterHist("entry.size", s.SizeHist)
	term := sc.Scope("entry.term")
	for i := range s.TermCounts {
		term.RegisterCounter(TermReason(i).String(), &s.TermCounts[i])
	}
	sc.RegisterCounter("entry.span", &s.SpanEntries)
	sc.RegisterDist("entries_per_pw", &s.EntriesPerPW)

	sc.RegisterCounter("smc.probes", &s.InvalProbes)
	sc.RegisterCounter("smc.entries", &s.InvalEntries)
}

// HitRate returns lookup hit rate.
func (s *Stats) HitRate() float64 {
	return stats.Ratio(s.Hits.Value(), s.Lookups.Value())
}

// TakenTermFraction returns the Fig 6 metric: fraction of filled entries
// terminated by a predicted taken branch.
func (s *Stats) TakenTermFraction() float64 {
	return stats.Ratio(s.TermCounts[TermTakenBranch].Value(), s.Fills.Value())
}

// SpanFraction returns the Fig 9 metric: fraction of filled entries spanning
// an I-cache line boundary.
func (s *Stats) SpanFraction() float64 {
	return stats.Ratio(s.SpanEntries.Value(), s.Fills.Value())
}

// CompactedFraction returns the Fig 18 metric: fraction of fills compacted
// into an existing line without evicting anything.
func (s *Stats) CompactedFraction() float64 {
	return stats.Ratio(s.FillsCompact.Value(), s.Fills.Value())
}

// AllocDistribution returns the Fig 19 fractions (RAC, PWAC, F-PWAC) over
// compacted fills.
func (s *Stats) AllocDistribution() (rac, pwac, fpwac float64) {
	total := s.AllocRAC.Value() + s.AllocPWAC.Value() + s.AllocFPWAC.Value()
	return stats.Ratio(s.AllocRAC.Value(), total),
		stats.Ratio(s.AllocPWAC.Value(), total),
		stats.Ratio(s.AllocFPWAC.Value(), total)
}

// reset zeroes every instrument in place, keeping the histogram's and the
// distribution's storage.
func (s *Stats) reset() {
	s.SizeHist.Reset()
	s.EntriesPerPW.Reset()
	*s = Stats{SizeHist: s.SizeHist, EntriesPerPW: s.EntriesPerPW}
}

func (s *Stats) noteFillShape(e *Entry) {
	s.Fills.Inc()
	s.SizeHist.Observe(e.Bytes())
	s.TermCounts[e.Term].Inc()
	if e.SpansBoundary {
		s.SpanEntries.Inc()
	}
}
