package stats

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
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
	if err := json.Unmarshal(b, &s); err != nil {
		return Snapshot{}, fmt.Errorf("stats: decoding snapshot: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}

// plainSnapshot is Snapshot without its UnmarshalJSON method, for
// encoding/json's own decoder.
type plainSnapshot Snapshot

// UnmarshalJSON decodes b in one pass when it has the shape WriteJSON and
// json.Marshal give a snapshot read into an empty Snapshot: one "samples"
// array of objects with exact lowercase keys, no key twice, strings with
// no escapes and no bytes outside printable ASCII, and numbers that fit
// their fields. Samples is sized once from the count of "path" keys, the
// buckets of every sample share one array, each Kind is a kindNames
// constant and each Path comes from the process-wide intern table, so a
// warm decode allocates two objects however many samples it holds. Any
// other input, including a Snapshot that already holds samples, goes to
// encoding/json, so what is accepted, what is decoded and what fails are
// exactly what json.Unmarshal gives.
func (s *Snapshot) UnmarshalJSON(b []byte) error {
	if cap(s.Samples) == 0 {
		r := snapReader{b: b}
		if samples, ok := r.snapshot(); ok {
			intern(r.misses)
			s.Samples = samples
			return nil
		}
	}
	return json.Unmarshal(b, (*plainSnapshot)(s))
}

// pathKey and leKey count samples and buckets to size their arrays: a
// key is followed by its colon, and leaving out its opening quote, which
// is in nearly every token, lets bytes.Count skip ahead on a rarer byte.
// Input with space before a colon is only sized less well.
var (
	pathKey = []byte(`path":`)
	leKey   = []byte(`le":`)
)

// snapReader is UnmarshalJSON's one pass. Each method skips leading
// whitespace and reports false on anything outside the accepted shape.
type snapReader struct {
	b       []byte
	i       int
	buckets []Bucket // every sample's buckets, sized at the first "buckets" key
	misses  []string // paths not in the intern table, to add once the decode succeeds
}

func (r *snapReader) snapshot() ([]Sample, bool) {
	var samples []Sample
	ok := r.object(snapshotKeys, func(string) bool {
		samples = make([]Sample, 0, bytes.Count(r.b, pathKey))
		return r.array(func() bool {
			var sm Sample
			ok := r.object(sampleKeys, func(key string) bool { return r.sampleField(&sm, key) })
			samples = append(samples, sm)
			return ok
		})
	})
	r.skipSpace()
	// A document without "samples" leaves Samples as it was: encoding/json's.
	return samples, ok && samples != nil && r.i == len(r.b)
}

// The keys each object may hold, each at most once.
var (
	snapshotKeys = []string{"samples"}
	sampleKeys   = []string{"path", "kind", "value", "count", "buckets"}
	bucketKeys   = []string{"le", "count"}
)

func (r *snapReader) sampleField(sm *Sample, key string) bool {
	ok := false
	switch key {
	case "path":
		var p []byte
		if p, ok = r.str(); ok {
			sm.Path = r.path(p)
		}
	case "kind":
		var k []byte
		if k, ok = r.str(); ok {
			sm.Kind, ok = kindName(k)
		}
	case "value":
		sm.Value, ok = r.float()
	case "count":
		sm.Count, ok = r.uint()
	case "buckets":
		sm.Buckets, ok = r.bucketList()
	}
	return ok
}

// bucketList reads a bucket array into the array every sample's buckets
// share; the sample's slice is capped at its own length, so appending to
// it never reaches another sample's buckets.
func (r *snapReader) bucketList() ([]Bucket, bool) {
	if r.buckets == nil {
		r.buckets = make([]Bucket, 0, bytes.Count(r.b[r.i:], leKey))
	}
	start := len(r.buckets)
	ok := r.array(func() bool {
		var bk Bucket
		ok := r.object(bucketKeys, func(key string) bool {
			ok := false
			if key == "le" {
				bk.Le, ok = r.int()
			} else {
				bk.Count, ok = r.uint()
			}
			return ok
		})
		r.buckets = append(r.buckets, bk)
		return ok
	})
	end := len(r.buckets)
	return r.buckets[start:end:end], ok
}

// object reads {"key": value, ...}, each key one of keys and none twice,
// calling field to read each value.
func (r *snapReader) object(keys []string, field func(key string) bool) bool {
	if !r.next('{') {
		return false
	}
	if r.next('}') {
		return true
	}
	seen := 0
	for {
		b, ok := r.str()
		if !ok {
			return false
		}
		k := 0
		for k < len(keys) && string(b) != keys[k] {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 || !r.next(':') || !field(keys[k]) {
			return false
		}
		seen |= 1 << k
		if r.next('}') {
			return true
		}
		if !r.next(',') {
			return false
		}
	}
}

// array reads [elem, ...], calling elem to read each element.
func (r *snapReader) array(elem func() bool) bool {
	if !r.next('[') {
		return false
	}
	if r.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if r.next(']') {
			return true
		}
		if !r.next(',') {
			return false
		}
	}
}

// skipSpace skips JSON whitespace, taking a run of spaces (the
// indentation WriteJSON gives nested samples) eight bytes at a time.
func (r *snapReader) skipSpace() {
	b, i := r.b, r.i
	for i < len(b) {
		if c := b[i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			break
		}
		i++
		for i+8 <= len(b) {
			if w := binary.LittleEndian.Uint64(b[i:]) ^ eightSpaces; w != 0 {
				i += bits.TrailingZeros64(w) / 8
				break
			}
			i += 8
		}
	}
	r.i = i
}

const eightSpaces = 0x2020202020202020

// next consumes c if it is the next byte after whitespace.
func (r *snapReader) next(c byte) bool {
	r.skipSpace()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// str reads a string of printable ASCII with no escapes and returns its
// bytes, which alias the input.
func (r *snapReader) str() ([]byte, bool) {
	if !r.next('"') {
		return nil, false
	}
	b, start := r.b, r.i
	for j := start; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			r.i = j + 1
			return b[start:j], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number reads one JSON number literal.
func (r *snapReader) number() ([]byte, bool) {
	r.skipSpace()
	start := r.i
	if r.i < len(r.b) && r.b[r.i] == '-' {
		r.i++
	}
	if r.i < len(r.b) && r.b[r.i] == '0' {
		r.i++
	} else if !r.digits() {
		return nil, false
	}
	if r.i < len(r.b) && r.b[r.i] == '.' {
		r.i++
		if !r.digits() {
			return nil, false
		}
	}
	if r.i < len(r.b) && (r.b[r.i] == 'e' || r.b[r.i] == 'E') {
		r.i++
		if r.i < len(r.b) && (r.b[r.i] == '+' || r.b[r.i] == '-') {
			r.i++
		}
		if !r.digits() {
			return nil, false
		}
	}
	return r.b[start:r.i], true
}

func (r *snapReader) digits() bool {
	start := r.i
	for r.i < len(r.b) && r.b[r.i] >= '0' && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i > start
}

// float, uint and int parse a literal as encoding/json does for a field
// of that type; a literal encoding/json would refuse fails the pass.
func (r *snapReader) float() (float64, bool) {
	lit, ok := r.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

func (r *snapReader) uint() (uint64, bool) {
	lit, ok := r.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseUint(string(lit), 10, 64)
	return v, err == nil
}

func (r *snapReader) int() (int64, bool) {
	lit, ok := r.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, 64)
	return v, err == nil
}

// kindName returns the kindNames constant spelled by b.
func kindName(b []byte) (string, bool) {
	for _, k := range kindNames {
		if string(b) == k {
			return k, true
		}
	}
	return "", false
}

// The intern table holds one copy of each sample path decoded in this
// process, so decoded snapshots share their paths and a warm decode
// allocates none. It is copy-on-write: a lookup loads the current map with
// no lock, and additions copy it under internMu. It stops growing at
// internCap paths of at most internMaxLen bytes, so no blob or peer answer
// can grow it without bound; past that, paths are allocated per decode.
const (
	internCap    = 4096
	internMaxLen = 128
)

var (
	internTable atomic.Pointer[map[string]string]
	internMu    sync.Mutex
)

// path returns the interned copy of p, or a new one, which it records as
// a miss when the table may take it.
func (r *snapReader) path(p []byte) string {
	if m := internTable.Load(); m != nil {
		if s, ok := (*m)[string(p)]; ok {
			return s
		}
	}
	s := string(p)
	if len(s) <= internMaxLen {
		r.misses = append(r.misses, s)
	}
	return s
}

// intern adds paths to the table, up to internCap entries.
func intern(paths []string) {
	if len(paths) == 0 {
		return
	}
	internMu.Lock()
	defer internMu.Unlock()
	next := map[string]string{}
	if old := internTable.Load(); old != nil {
		if len(*old) >= internCap {
			return
		}
		next = maps.Clone(*old)
	}
	for _, p := range paths {
		if len(next) >= internCap {
			break
		}
		if _, ok := next[p]; !ok {
			next[p] = p
		}
	}
	internTable.Store(&next)
}
