package warehouse

import "uopsim/internal/stats"

// Stats is the warehouse's observable state: the structural gauges
// (records, segments, bytes) plus cumulative activity counters. Fields are
// JSON-tagged for /v1/stats.
type Stats struct {
	// Records is the live record count; Segments the on-disk file count.
	Records  int `json:"records"`
	Segments int `json:"segments"`
	// LiveBytes / DeadBytes split the stored frame bytes into reachable
	// records and compactable garbage (superseded records, tombstones).
	LiveBytes int64 `json:"live_bytes"`
	DeadBytes int64 `json:"dead_bytes"`
	// Puts / Loads / Misses count store traffic; Supersedes counts puts
	// that replaced an existing record.
	Puts       uint64 `json:"puts"`
	Loads      uint64 `json:"loads"`
	Misses     uint64 `json:"misses"`
	Supersedes uint64 `json:"supersedes"`
	// Deletes / Quarantined / Evictions count the three tombstone sources:
	// explicit deletion, corrupt-blob quarantine, and the byte budget.
	Deletes     uint64 `json:"deletes"`
	Quarantined uint64 `json:"quarantined"`
	Evictions   uint64 `json:"evictions"`
	// Compactions counts completed rewrites; CompactErrors failed
	// background attempts (the store stays serviceable either way).
	Compactions   uint64 `json:"compactions"`
	CompactErrors uint64 `json:"compact_errors"`
	// TornTails counts open-time tail truncations (crash recoveries);
	// CorruptFrames counts bad frames found in sealed segments or under
	// compaction — data that was lost to the index, not trusted.
	TornTails     uint64 `json:"torn_tails"`
	CorruptFrames uint64 `json:"corrupt_frames"`
}

// Stats returns a copy of the current counters and gauges.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.Records = len(s.idx)
	st.Segments = len(s.segs)
	st.LiveBytes = s.liveBytes
	st.DeadBytes = s.deadBytes
	return st
}

// RegisterStats mounts the warehouse's instruments as gauges under sc
// (conventionally a "warehouse" scope), mirroring how the engine exposes
// its resolution counters: gauges read live store state at snapshot time
// under the store's own lock. Register a given store into a given registry
// once; duplicate paths panic.
func (s *Store) RegisterStats(sc stats.Scope) {
	gauge := func(name string, read func(Stats) float64) {
		sc.RegisterGauge(name, func() float64 { return read(s.Stats()) })
	}
	gauge("records", func(st Stats) float64 { return float64(st.Records) })
	gauge("segments", func(st Stats) float64 { return float64(st.Segments) })
	gauge("live_bytes", func(st Stats) float64 { return float64(st.LiveBytes) })
	gauge("dead_bytes", func(st Stats) float64 { return float64(st.DeadBytes) })
	gauge("puts", func(st Stats) float64 { return float64(st.Puts) })
	gauge("loads", func(st Stats) float64 { return float64(st.Loads) })
	gauge("misses", func(st Stats) float64 { return float64(st.Misses) })
	gauge("supersedes", func(st Stats) float64 { return float64(st.Supersedes) })
	gauge("deletes", func(st Stats) float64 { return float64(st.Deletes) })
	gauge("quarantined", func(st Stats) float64 { return float64(st.Quarantined) })
	gauge("evictions", func(st Stats) float64 { return float64(st.Evictions) })
	gauge("compactions", func(st Stats) float64 { return float64(st.Compactions) })
	gauge("compact_errors", func(st Stats) float64 { return float64(st.CompactErrors) })
	gauge("torn_tails", func(st Stats) float64 { return float64(st.TornTails) })
	gauge("corrupt_frames", func(st Stats) float64 { return float64(st.CorruptFrames) })
}
