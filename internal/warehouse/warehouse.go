// Package warehouse is the simulator's results warehouse: the indexed,
// compacting, size-bounded store behind every persistent design-point
// engine. Records — a fingerprint, the design point's
// canonical feature vector, and the PointResult blob — append to
// length+CRC framed segment files; an in-memory index (rebuilt by replaying
// the segments on open) serves point loads, and the feature vector answers
// set queries ("UPC of every scheme at 2K-uop capacity") without decoding
// every blob. A torn tail truncates cleanly on open, superseded and deleted
// records are reclaimed by compaction, and an optional byte budget evicts
// the least-recently-used records. warehouse.Store satisfies
// runcache.Store, so the design-point engine, the uopsimd daemon, and the
// experiment sweeps all run on it unchanged. See DESIGN.md §11.
package warehouse

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"uopsim/internal/runcache"
)

// Options sizes a Store. Zero values select the documented defaults.
type Options struct {
	// SegmentBytes caps the append segment; reaching it seals the segment
	// and rotates to a fresh one (default 64 MiB).
	SegmentBytes int64
	// MaxBytes bounds the total bytes of live records; exceeding it evicts
	// least-recently-used records until ~90% of the budget. 0 = unbounded.
	MaxBytes int64
	// CompactFraction triggers background compaction when dead bytes exceed
	// this fraction of the store (default 0.5; >= 1 disables the automatic
	// trigger — Compact can still be called explicitly).
	CompactFraction float64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.CompactFraction == 0 {
		o.CompactFraction = 0.5
	}
	return o
}

// Hook observes live-set changes: RecordPut after a record lands (new or
// superseding), RecordRemove after one leaves (eviction, deletion,
// quarantine). Callbacks run on the mutating goroutine AFTER the store's
// mutex is released — a hook may call back into the store, but it must not
// assume the record is still present (a concurrent mutation may have run
// between the event and the callback). Compaction fires nothing: it moves
// bytes, never changes the live set. Replay-on-open also fires nothing;
// install the hook after Open and seed from Iter. The surrogate model's
// incremental training feed is the motivating consumer.
type Hook interface {
	RecordPut(fp runcache.Fingerprint, feat runcache.Features, blob []byte)
	RecordRemove(fp runcache.Fingerprint)
}

// loc addresses one live record: the segment it lives in, the frame's
// offset and length, and the logical-clock tick of its last use (the
// eviction policy's recency signal — a counter, not wall clock, so replay
// and tests stay deterministic).
type loc struct {
	seg      uint64
	off      int64
	frameLen int64
	lastUse  uint64
}

// segment is one on-disk file of frames. The highest-id segment is the
// append tail; all others are sealed (read-only).
type segment struct {
	id   uint64
	path string
	f    *os.File
	size int64
}

// Store is the warehouse. All methods are safe for concurrent use; one
// mutex serializes index mutation, appends, and reads (records are
// kilobytes and reads are ReadAt — the lock is never held across a
// simulation).
type Store struct {
	dir  string
	opts Options

	mu sync.Mutex
	//uopvet:guardedby mu
	segs []*segment // ascending id; last is the append tail
	//uopvet:guardedby mu
	idx map[runcache.Fingerprint]loc
	//uopvet:guardedby mu
	clock uint64 // logical LRU clock, bumped per access
	//uopvet:guardedby mu
	liveBytes int64 // frame bytes of live records
	//uopvet:guardedby mu
	deadBytes int64 // frame bytes of superseded records and tombstones
	//uopvet:guardedby mu
	compacting bool // a background Compact is scheduled or running
	//uopvet:guardedby mu
	closed bool
	//uopvet:guardedby mu
	st Stats
	//uopvet:guardedby mu
	buf []byte // frame scratch, reused across Puts under mu
	//uopvet:guardedby mu
	hook Hook // optional live-set observer; called after unlock
}

// SetHook installs (or clears, with nil) the live-set observer.
func (s *Store) SetHook(h Hook) {
	s.mu.Lock()
	s.hook = h
	s.mu.Unlock()
}

// Open opens (creating if needed) a warehouse at dir, replaying its
// segments to rebuild the index. A torn tail on the newest segment — a
// crash mid-append — is truncated at the last intact frame; corrupt frames
// inside sealed segments are counted and the segment's remainder skipped,
// never trusted.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	s := &Store{dir: dir, opts: opts, idx: make(map[runcache.Fingerprint]loc)}
	if err := s.load(); err != nil {
		s.closeFiles()
		return nil, err
	}
	return s, nil
}

// segPath names segment id's file.
func (s *Store) segPath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.whs", id))
}

// load replays every segment in id order and leaves the store appendable.
//
//uopvet:locked mu -- exclusive: runs pre-publication in Open
func (s *Store) load() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.whs"))
	if err != nil {
		return fmt.Errorf("warehouse: %w", err)
	}
	// Stale compaction temporaries are garbage from a crashed compactor;
	// the rename never happened, so their contents are fully duplicated by
	// the segments they were built from.
	if tmps, _ := filepath.Glob(filepath.Join(s.dir, "tmp-*")); len(tmps) > 0 {
		for _, t := range tmps {
			os.Remove(t)
		}
	}
	type idName struct {
		id   uint64
		path string
	}
	var ids []idName
	for _, n := range names {
		var id uint64
		base := filepath.Base(n)
		if _, err := fmt.Sscanf(base, "seg-%d.whs", &id); err != nil {
			continue // not ours
		}
		ids = append(ids, idName{id, n})
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].id < ids[j].id })
	for i, in := range ids {
		seg, err := s.replaySegment(in.id, in.path, i == len(ids)-1)
		if err != nil {
			return err
		}
		s.segs = append(s.segs, seg)
	}
	if len(s.segs) == 0 {
		seg, err := s.newSegment(1)
		if err != nil {
			return err
		}
		s.segs = append(s.segs, seg)
	}
	return nil
}

// replaySegment scans one segment file, applying its frames to the index.
// tail marks the newest segment: only there is a bad frame a torn write to
// recover from (truncate and keep appending); in a sealed segment it is
// corruption to quarantine (skip the remainder).
//
//uopvet:locked mu -- exclusive: runs pre-publication in Open
func (s *Store) replaySegment(id uint64, path string, tail bool) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	seg := &segment{id: id, path: path, f: f}
	good := int64(len(segMagic)) // offset after the last intact frame
	bad := false
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		bad = true
		good = 0
	} else {
		off := int64(len(segMagic))
		for {
			n, rest, okLen := frameAt(data, off)
			if !okLen {
				bad = off != int64(len(data)) // clean EOF is not damage
				break
			}
			r, err := decodePayload(rest)
			if err != nil {
				bad = true
				break
			}
			frameLen := frameHeaderLen + int64(n)
			s.applyFrame(seg.id, off, frameLen, r)
			off += frameLen
			good = off
		}
	}
	switch {
	case bad && tail:
		// Torn tail: drop everything after the last intact frame so the
		// segment is append-clean again. Zero intact bytes (bad magic)
		// rewrites the header.
		s.st.TornTails++
		if good == 0 {
			if err := f.Truncate(0); err != nil {
				f.Close()
				return nil, fmt.Errorf("warehouse: %w", err)
			}
			if _, err := f.WriteAt([]byte(segMagic), 0); err != nil {
				f.Close()
				return nil, fmt.Errorf("warehouse: %w", err)
			}
			good = int64(len(segMagic))
		} else if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("warehouse: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("warehouse: %w", err)
		}
	case bad:
		// A sealed segment should never have a bad frame (it was synced
		// before rotation); count it and leave the file for post-mortem —
		// the records after the damage are lost to the index, which is the
		// safe direction (a miss re-simulates).
		s.st.CorruptFrames++
	}
	if tail {
		seg.size = good
	} else {
		seg.size = int64(len(data)) // sealed: size is informational, never appended to
	}
	return seg, nil
}

// frameAt reads the frame header at off and returns the payload if its
// length and checksum both hold.
func frameAt(data []byte, off int64) (payloadLen uint32, payload []byte, ok bool) {
	if off+frameHeaderLen > int64(len(data)) {
		return 0, nil, false
	}
	n := uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24
	crc := uint32(data[off+4]) | uint32(data[off+5])<<8 | uint32(data[off+6])<<16 | uint32(data[off+7])<<24
	if n > maxPayload || off+frameHeaderLen+int64(n) > int64(len(data)) {
		return 0, nil, false
	}
	payload = data[off+frameHeaderLen : off+frameHeaderLen+int64(n)]
	if crcOf(payload) != crc {
		return 0, nil, false
	}
	return n, payload, true
}

// applyFrame folds one replayed frame into the index and byte accounting.
//
//uopvet:locked mu -- exclusive: runs pre-publication in Open
func (s *Store) applyFrame(segID uint64, off, frameLen int64, r rec) {
	if prev, ok := s.idx[r.fp]; ok {
		s.liveBytes -= prev.frameLen
		s.deadBytes += prev.frameLen
	}
	if r.flags == recTombstone {
		delete(s.idx, r.fp)
		s.deadBytes += frameLen
		return
	}
	s.clock++
	s.idx[r.fp] = loc{seg: segID, off: off, frameLen: frameLen, lastUse: s.clock}
	s.liveBytes += frameLen
}

// newSegment creates and publishes an empty segment file.
func (s *Store) newSegment(id uint64) (*segment, error) {
	path := s.segPath(id)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	if err := runcache.SyncDir(s.dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	return &segment{id: id, path: path, f: f, size: int64(len(segMagic))}, nil
}

// tail returns the append segment.
//
//uopvet:locked mu -- callers hold the lock
func (s *Store) tail() *segment { return s.segs[len(s.segs)-1] }

// rotateLocked seals the tail and opens a fresh append segment.
//
//uopvet:locked mu -- the Locked suffix is the contract
func (s *Store) rotateLocked() error {
	t := s.tail()
	if err := t.f.Sync(); err != nil {
		return fmt.Errorf("warehouse: %w", err)
	}
	seg, err := s.newSegment(t.id + 1)
	if err != nil {
		return err
	}
	s.segs = append(s.segs, seg)
	return nil
}

// appendLocked writes one frame to the tail (rotating first if it would
// overflow), fsyncs, and returns the frame's location.
//
//uopvet:locked mu -- the Locked suffix is the contract
func (s *Store) appendLocked(r rec) (uint64, int64, int64, error) {
	var err error
	s.buf, err = appendFrame(s.buf[:0], r)
	if err != nil {
		return 0, 0, 0, err
	}
	frame := s.buf
	t := s.tail()
	if t.size > int64(len(segMagic)) && t.size+int64(len(frame)) > s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return 0, 0, 0, err
		}
		t = s.tail()
	}
	off := t.size
	if _, err := t.f.WriteAt(frame, off); err != nil {
		return 0, 0, 0, fmt.Errorf("warehouse: %w", err)
	}
	if err := t.f.Sync(); err != nil {
		return 0, 0, 0, fmt.Errorf("warehouse: %w", err)
	}
	t.size = off + int64(len(frame))
	return t.id, off, int64(len(frame)), nil
}

// Put implements runcache.Store: persist blob (and the point's feature
// vector) under fp, superseding any previous record.
func (s *Store) Put(fp runcache.Fingerprint, feat runcache.Features, blob []byte) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("warehouse: store is closed")
	}
	segID, off, frameLen, err := s.appendLocked(rec{flags: recLive, fp: fp, feat: feat, blob: blob})
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if prev, ok := s.idx[fp]; ok {
		s.liveBytes -= prev.frameLen
		s.deadBytes += prev.frameLen
		s.st.Supersedes++
	}
	s.clock++
	s.idx[fp] = loc{seg: segID, off: off, frameLen: frameLen, lastUse: s.clock}
	s.liveBytes += frameLen
	s.st.Puts++
	victims, err := s.evictLocked(fp)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.maybeCompactLocked()
	h := s.hook
	s.mu.Unlock()
	if h != nil {
		h.RecordPut(fp, feat, blob)
		for _, v := range victims {
			h.RecordRemove(v)
		}
	}
	return nil
}

// Load implements runcache.Store. Any failure — absent record, unreadable
// segment, checksum mismatch — is a plain miss; the engine re-simulates
// rather than trust a doubtful read.
func (s *Store) Load(fp runcache.Fingerprint) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.readLocked(fp)
	if !ok || r.flags != recLive {
		s.st.Misses++
		return nil, false
	}
	s.clock++
	l := s.idx[fp]
	l.lastUse = s.clock
	s.idx[fp] = l
	s.st.Loads++
	return r.blob, true
}

// readLocked fetches and decodes fp's frame. The returned blob does not
// alias store internals.
//
//uopvet:locked mu -- the Locked suffix is the contract
func (s *Store) readLocked(fp runcache.Fingerprint) (rec, bool) {
	l, ok := s.idx[fp]
	if !ok {
		return rec{}, false
	}
	seg := s.segByID(l.seg)
	if seg == nil {
		return rec{}, false
	}
	buf := make([]byte, l.frameLen)
	if _, err := seg.f.ReadAt(buf, l.off); err != nil {
		return rec{}, false
	}
	n, payload, ok := frameAt(buf, 0)
	if !ok || frameHeaderLen+int64(n) != l.frameLen {
		return rec{}, false
	}
	r, err := decodePayload(payload)
	if err != nil || r.fp != fp {
		return rec{}, false
	}
	return r, true
}

//
//uopvet:locked mu -- callers hold the lock
func (s *Store) segByID(id uint64) *segment {
	for _, seg := range s.segs {
		if seg.id == id {
			return seg
		}
	}
	return nil
}

// Location implements runcache.Store.
func (s *Store) Location(fp runcache.Fingerprint) string {
	return fmt.Sprintf("warehouse %s record %s", s.dir, fp.Short())
}

// Quarantine implements runcache.Store: a corrupt record is tombstoned so
// the next Load is a clean miss instead of a failed decode forever. The
// bytes themselves are reclaimed by the next compaction.
func (s *Store) Quarantine(fp runcache.Fingerprint) error {
	s.mu.Lock()
	if _, ok := s.idx[fp]; !ok {
		s.mu.Unlock()
		return nil
	}
	s.st.Quarantined++
	err := s.deleteLocked(fp)
	h := s.hook
	s.mu.Unlock()
	if err == nil && h != nil {
		h.RecordRemove(fp)
	}
	return err
}

// Delete tombstones fp's record (a no-op when absent).
func (s *Store) Delete(fp runcache.Fingerprint) error {
	s.mu.Lock()
	if _, ok := s.idx[fp]; !ok {
		s.mu.Unlock()
		return nil
	}
	s.st.Deletes++
	err := s.deleteLocked(fp)
	h := s.hook
	s.mu.Unlock()
	if err == nil && h != nil {
		h.RecordRemove(fp)
	}
	return err
}

// deleteLocked appends a tombstone and drops fp from the index.
//
//uopvet:locked mu -- the Locked suffix is the contract
func (s *Store) deleteLocked(fp runcache.Fingerprint) error {
	if s.closed {
		return fmt.Errorf("warehouse: store is closed")
	}
	_, _, frameLen, err := s.appendLocked(rec{flags: recTombstone, fp: fp})
	if err != nil {
		return err
	}
	if prev, ok := s.idx[fp]; ok {
		delete(s.idx, fp)
		s.liveBytes -= prev.frameLen
		s.deadBytes += prev.frameLen
	}
	s.deadBytes += frameLen
	s.maybeCompactLocked()
	return nil
}

// evictLocked enforces the byte budget: while live bytes exceed MaxBytes,
// the least-recently-used records (logical clock, not wall time) are
// tombstoned, oldest first, down to 90% of the budget so each overflow
// evicts a batch instead of thrashing one record at a time. keep is the
// fingerprint just written — the newest record is never its own victim.
// The evicted fingerprints are returned so Put can fire the hook's
// RecordRemove events once the lock is released.
//
//uopvet:locked mu -- the Locked suffix is the contract
func (s *Store) evictLocked(keep runcache.Fingerprint) ([]runcache.Fingerprint, error) {
	if s.opts.MaxBytes <= 0 || s.liveBytes <= s.opts.MaxBytes {
		return nil, nil
	}
	type cand struct {
		fp      runcache.Fingerprint
		lastUse uint64
		bytes   int64
	}
	cands := make([]cand, 0, len(s.idx))
	for fp, l := range s.idx {
		if fp == keep {
			continue
		}
		cands = append(cands, cand{fp: fp, lastUse: l.lastUse, bytes: l.frameLen})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].lastUse < cands[j].lastUse })
	target := s.opts.MaxBytes * 9 / 10
	var victims []runcache.Fingerprint
	for _, c := range cands {
		if s.liveBytes <= target {
			break
		}
		s.st.Evictions++
		if err := s.deleteLocked(c.fp); err != nil {
			return victims, err
		}
		victims = append(victims, c.fp)
	}
	return victims, nil
}

// maybeCompactLocked schedules a background compaction when dead bytes
// cross the configured fraction of the store.
//
//uopvet:locked mu -- the Locked suffix is the contract
func (s *Store) maybeCompactLocked() {
	if s.compacting || s.closed || s.opts.CompactFraction >= 1 {
		return
	}
	total := s.liveBytes + s.deadBytes
	if total == 0 || float64(s.deadBytes)/float64(total) < s.opts.CompactFraction {
		return
	}
	if s.deadBytes < 1<<16 {
		return // not worth a rewrite yet
	}
	s.compacting = true
	go func() {
		defer func() {
			s.mu.Lock()
			s.compacting = false
			s.mu.Unlock()
		}()
		if err := s.Compact(); err != nil {
			s.mu.Lock()
			s.st.CompactErrors++
			s.mu.Unlock()
		}
	}()
}

// Close syncs and closes the store. Further mutations error.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.tail().f.Sync()
	s.closeFiles()
	return err
}

//
//uopvet:locked mu -- exclusive: Close holds the lock, Open pre-publication
func (s *Store) closeFiles() {
	for _, seg := range s.segs {
		if seg.f != nil {
			seg.f.Close()
			seg.f = nil
		}
	}
}

// Dir returns the directory backing the store.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// fingerprintsLocked returns the live fingerprints in sorted order (the
// map range is made order-independent by the sort — iteration and query
// output must not depend on scheduling).
//
//uopvet:locked mu -- the Locked suffix is the contract
func (s *Store) fingerprintsLocked() []runcache.Fingerprint {
	fps := make([]runcache.Fingerprint, 0, len(s.idx))
	for fp := range s.idx {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	return fps
}

// String summarizes the store for log lines.
func (s *Store) String() string {
	st := s.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "records=%d segments=%d live_bytes=%d dead_bytes=%d puts=%d loads=%d evictions=%d compactions=%d",
		st.Records, st.Segments, st.LiveBytes, st.DeadBytes, st.Puts, st.Loads, st.Evictions, st.Compactions)
	return b.String()
}
