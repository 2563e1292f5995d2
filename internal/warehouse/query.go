package warehouse

import (
	"fmt"

	"uopsim/internal/runcache"
)

// Record is one live warehouse entry as surfaced by Iter and Select.
type Record struct {
	// Fingerprint is the design point's content address.
	Fingerprint runcache.Fingerprint
	// Features is the canonical feature vector stored with the blob (nil
	// when the writer supplied none).
	Features runcache.Features
	// Blob is the stored payload (a PointResult JSON for this repo's
	// engines). It does not alias store internals.
	Blob []byte
}

// Iter calls fn for every live record in ascending fingerprint order — the
// one stable order a content-addressed store has — and stops at the first
// error, returning it. The snapshot of fingerprints is taken up front, so
// records put after Iter starts are not visited and records deleted
// mid-iteration are skipped; fn runs without the store lock held and may
// call back into the store.
func (s *Store) Iter(fn func(Record) error) error {
	s.mu.Lock()
	fps := s.fingerprintsLocked()
	s.mu.Unlock()
	for _, fp := range fps {
		s.mu.Lock()
		r, ok := s.readLocked(fp)
		s.mu.Unlock()
		if !ok || r.flags != recLive {
			continue
		}
		if err := fn(Record{Fingerprint: fp, Features: r.feat, Blob: r.blob}); err != nil {
			return err
		}
	}
	return nil
}

// Query selects a subset of the warehouse by feature predicates.
type Query struct {
	// Where matches records whose feature vector carries every listed
	// key with exactly the listed value (e.g. "config.uopcache.capacityuops"
	// → "2048"). Records without a feature vector (legacy imports) match
	// only an empty Where.
	Where map[string]string
	// Limit caps the result count (0 = unlimited). Applied after the
	// fingerprint sort, so a limited query is a stable prefix.
	Limit int
}

// Matches reports whether rec satisfies q's predicates.
func (q Query) Matches(r Record) bool {
	for k, want := range q.Where {
		got, ok := r.Features.Get(k)
		if !ok || got != want {
			return false
		}
	}
	return true
}

// Select returns the records matching q in ascending fingerprint order.
func (s *Store) Select(q Query) ([]Record, error) {
	var out []Record
	err := s.Iter(func(r Record) error {
		if !q.Matches(r) {
			return nil
		}
		out = append(out, r)
		if q.Limit > 0 && len(out) >= q.Limit {
			return errStopIter
		}
		return nil
	})
	if err != nil && err != errStopIter {
		return nil, err
	}
	return out, nil
}

// errStopIter is Select's internal early-out sentinel.
var errStopIter = fmt.Errorf("warehouse: stop iteration")
