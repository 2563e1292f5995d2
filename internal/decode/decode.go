// Package decode models the x86 decode pipeline of Table I: a fixed-width,
// fixed-latency pipe (4 instructions/cycle, 3 cycles) that turns variable
// length instructions into uops. The heavy lifting of instruction
// identification is abstracted as the pipe latency; energy is accounted by
// internal/power.
package decode

import (
	"uopsim/internal/reuse"
	"uopsim/internal/stats"
)

// Pipe is a fixed-latency, width-limited pipeline stage: at most Width items
// enter per cycle, and each item exits Latency cycles later, in order.
type Pipe[T any] struct {
	latency int
	width   int

	slots []pipeSlot[T]
	head  int
	count int

	lastPushCycle int64
	pushedThis    int

	pushes stats.Counter
}

// RegisterMetrics publishes the pipe's push counter under sc (mount
// points like "decode.pipe.oc").
func (p *Pipe[T]) RegisterMetrics(sc stats.Scope) {
	sc.RegisterCounter("pushes", &p.pushes)
}

type pipeSlot[T any] struct {
	value T
	ready int64
}

// NewPipe builds a pipe with the given latency, per-cycle width and buffer
// capacity (capacity bounds total in-flight items).
func NewPipe[T any](latency, width, capacity int) *Pipe[T] {
	p := &Pipe[T]{}
	p.Reset(latency, width, capacity)
	return p
}

// Reset empties p into the pipe NewPipe(latency, width, capacity) builds,
// reusing its slot buffer when the capacity matches. In-flight values are
// dropped; Flush them first to recycle what they hold.
func (p *Pipe[T]) Reset(latency, width, capacity int) {
	if latency < 1 {
		latency = 1
	}
	if width < 1 {
		width = 1
	}
	if capacity < width {
		capacity = width * latency
	}
	*p = Pipe[T]{latency: latency, width: width, slots: reuse.Slice(p.slots, capacity), lastPushCycle: -1}
}

// CanPush reports whether another item can enter at the given cycle.
func (p *Pipe[T]) CanPush(cycle int64) bool {
	if p.count == len(p.slots) {
		return false
	}
	return cycle != p.lastPushCycle || p.pushedThis < p.width
}

// Push enters v at cycle; it must be guarded by CanPush.
func (p *Pipe[T]) Push(cycle int64, v T) { *p.PushSlot(cycle) = v }

// PushSlot enters a zero item at cycle and returns it for the caller to
// fill in place; it must be guarded by CanPush. The item stays put until
// Drop or Flush removes it.
func (p *Pipe[T]) PushSlot(cycle int64) *T {
	if !p.CanPush(cycle) {
		panic("decode: push on full pipe")
	}
	if cycle != p.lastPushCycle {
		p.lastPushCycle = cycle
		p.pushedThis = 0
	}
	p.pushedThis++
	p.pushes.Inc()
	sl := &p.slots[(p.head+p.count)%len(p.slots)]
	sl.ready = cycle + int64(p.latency)
	p.count++
	return &sl.value
}

// HeadReady returns the oldest item, in place, if it has completed by
// cycle. It stays in the pipe until Drop removes it.
func (p *Pipe[T]) HeadReady(cycle int64) (*T, bool) {
	if p.count == 0 || p.slots[p.head].ready > cycle {
		return nil, false
	}
	return &p.slots[p.head].value, true
}

// Drop removes the oldest item, which HeadReady reported ready, zeroing
// its slot.
func (p *Pipe[T]) Drop() {
	var zero T
	p.slots[p.head].value = zero
	p.head = (p.head + 1) % len(p.slots)
	p.count--
}

// Len returns the number of in-flight items.
func (p *Pipe[T]) Len() int { return p.count }

// Flush discards all in-flight items (pipeline redirect). When release is
// non-nil it receives each in-flight value exactly once, oldest first, so an
// owner can recycle what the values hold.
func (p *Pipe[T]) Flush(release func(T)) {
	if release != nil {
		for i := 0; i < p.count; i++ {
			release(p.slots[(p.head+i)%len(p.slots)].value)
		}
	}
	for i := range p.slots {
		p.slots[i] = pipeSlot[T]{}
	}
	p.head, p.count = 0, 0
	p.lastPushCycle = -1
	p.pushedThis = 0
}
