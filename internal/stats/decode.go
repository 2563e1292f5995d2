package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
)

// Validate checks the structural invariants a snapshot must hold for point
// queries (Sample, Counter, Value) to work: samples strictly ascending by
// path and every kind a known instrument type. Snapshots produced by
// Registry.Snapshot hold these by construction; decoded ones (e.g. a
// run-cache blob) may not, and a consumer that trusted an unsorted sample
// list would silently answer every lookup with zero.
func (s Snapshot) Validate() error {
	for i, sm := range s.Samples {
		if sm.Path == "" {
			return fmt.Errorf("stats: snapshot sample %d has an empty path", i)
		}
		if !slices.Contains(kindNames[:], sm.Kind) {
			return fmt.Errorf("stats: snapshot sample %q has unknown kind %q", sm.Path, sm.Kind)
		}
		if i > 0 && s.Samples[i-1].Path >= sm.Path {
			return fmt.Errorf("stats: snapshot samples out of order (%q then %q)", s.Samples[i-1].Path, sm.Path)
		}
	}
	return nil
}

// DecodeSnapshot parses a snapshot previously serialized as JSON (by
// WriteJSON or as part of a run-cache blob) and validates it. The decoded
// snapshot carries exact integer counts — Counter/HistFraction/Value
// queries answer identically to the live snapshot it was encoded from.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	var s Snapshot
	s.Presize(b)
	if err := json.Unmarshal(b, &s); err != nil {
		return Snapshot{}, fmt.Errorf("stats: decoding snapshot: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}

// pathKey counts a snapshot's samples in its JSON: each carries one.
var pathKey = []byte(`"path"`)

// Presize gives Samples room for every sample in doc, a snapshot's JSON or
// a document holding one, counted by their "path" keys, so that decoding
// doc fills Samples without growing it. It is a separate step rather than
// an UnmarshalJSON method because encoding/json hands a custom decoder its
// bytes only after scanning them, and json.Unmarshal inside it would scan
// them twice more, which costs a warm answer more CPU than the growth
// saves.
func (s *Snapshot) Presize(doc []byte) {
	if n := bytes.Count(doc, pathKey); n > cap(s.Samples) {
		s.Samples = append(make([]Sample, 0, n), s.Samples...)
	}
}
