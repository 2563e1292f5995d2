// Package uopq defines the dynamic micro-op record that flows from the three
// fetch paths (uop cache, decoder, loop cache) to the back end, and the
// fixed-capacity micro-op queue of Table I (120 uops) that decouples them.
package uopq

import (
	"uopsim/internal/isa"
	"uopsim/internal/reuse"
	"uopsim/internal/stats"
)

// Source identifies which front-end path supplied a uop.
type Source uint8

const (
	// SrcDecoder marks uops from the I-cache + x86 decoder path.
	SrcDecoder Source = iota
	// SrcUopCache marks uops from the uop cache (decoder bypassed).
	SrcUopCache
	// SrcLoopCache marks uops replayed by the loop cache.
	SrcLoopCache
)

var srcNames = []string{"decoder", "opcache", "loopcache"}

// String names the source.
func (s Source) String() string {
	if int(s) < len(srcNames) {
		return srcNames[s]
	}
	return "src?"
}

// Uop is one dynamic micro-operation.
type Uop struct {
	// Inst is the static instruction this uop expands.
	Inst *isa.Inst
	// UopIdx is this uop's index within the instruction's expansion.
	UopIdx uint8
	// LastOfInst marks the final uop of the instruction (retirement
	// granularity and branch resolution point).
	LastOfInst bool
	// Source is the supplying front-end path.
	Source Source
	// FetchCycle is when the instruction entered the front end (branch
	// misprediction latency is measured from here, §III-C).
	FetchCycle int64
	// WrongPath marks uops fetched past an unresolved misprediction; they
	// are squashed at redirect and never commit.
	WrongPath bool

	// MemAddr is the effective address for memory uops on the correct path.
	MemAddr uint64

	// Branch resolution info (meaningful when Inst is a branch and this is
	// its last uop, on the correct path).
	ActualTaken bool
	ActualNext  uint64
	// Mispredicted marks a correct-path branch whose prediction (direction
	// or target) was wrong; resolving it triggers the pipeline redirect.
	Mispredicted bool
}

// Queue is a bounded FIFO of uops.
type Queue struct {
	buf        []Uop
	head, size int

	pushes  stats.Counter
	flushes stats.Counter
}

// RegisterMetrics publishes the queue's counters under sc (expected mount
// point: "uopq").
func (q *Queue) RegisterMetrics(sc stats.Scope) {
	sc.RegisterCounter("pushes", &q.pushes)
	sc.RegisterCounter("flushes", &q.flushes)
}

// NewQueue builds a queue with the given capacity.
func NewQueue(capacity int) *Queue {
	q := &Queue{}
	q.Reset(capacity)
	return q
}

// Reset empties q into the queue NewQueue(capacity) builds, reusing its
// buffer when its capacity matches.
func (q *Queue) Reset(capacity int) {
	*q = Queue{buf: reuse.Slice(q.buf, max(capacity, 1))}
}

// Cap returns the capacity.
func (q *Queue) Cap() int { return len(q.buf) }

// Len returns the occupancy.
func (q *Queue) Len() int { return q.size }

// Free returns remaining slots.
func (q *Queue) Free() int { return len(q.buf) - q.size }

// Push appends a uop; it reports false when full.
func (q *Queue) Push(u Uop) bool {
	if q.size == len(q.buf) {
		return false
	}
	i := q.head + q.size
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = u
	q.size++
	q.pushes.Inc()
	return true
}

// Peek returns the oldest uop without removing it.
func (q *Queue) Peek() (Uop, bool) {
	if q.size == 0 {
		return Uop{}, false
	}
	return q.buf[q.head], true
}

// Pop removes and returns the oldest uop.
func (q *Queue) Pop() (Uop, bool) {
	if q.size == 0 {
		return Uop{}, false
	}
	u := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.size--
	return u, true
}

// Flush discards all queued uops (pipeline redirect).
func (q *Queue) Flush() {
	q.head, q.size = 0, 0
	q.flushes.Inc()
}
