package decode

import (
	"reflect"
	"testing"
)

// popReady removes and returns the oldest item if it has completed by
// cycle.
func popReady[T any](p *Pipe[T], cycle int64) (T, bool) {
	v, ok := p.HeadReady(cycle)
	if !ok {
		var zero T
		return zero, false
	}
	out := *v
	p.Drop()
	return out, true
}

func TestPipeLatency(t *testing.T) {
	p := NewPipe[int](3, 2, 16)
	p.Push(10, 42)
	for c := int64(10); c < 13; c++ {
		if _, ok := popReady(p, c); ok {
			t.Fatalf("item emerged at cycle %d, before latency elapsed", c)
		}
	}
	v, ok := popReady(p, 13)
	if !ok || v != 42 {
		t.Fatalf("expected item at cycle 13, got (%v,%v)", v, ok)
	}
}

func TestPipeWidthPerCycle(t *testing.T) {
	p := NewPipe[int](1, 2, 16)
	if !p.CanPush(5) {
		t.Fatal("fresh pipe should accept")
	}
	p.Push(5, 1)
	p.Push(5, 2)
	if p.CanPush(5) {
		t.Fatal("third push in one cycle must be refused (width 2)")
	}
	if !p.CanPush(6) {
		t.Fatal("next cycle should accept again")
	}
}

func TestPipeOrdering(t *testing.T) {
	p := NewPipe[int](2, 4, 16)
	for i := 0; i < 4; i++ {
		p.Push(0, i)
	}
	for i := 0; i < 4; i++ {
		v, ok := popReady(p, 2)
		if !ok || v != i {
			t.Fatalf("pop %d = (%v,%v)", i, v, ok)
		}
	}
}

func TestPipeCapacity(t *testing.T) {
	p := NewPipe[int](4, 2, 4)
	p.Push(0, 0)
	p.Push(0, 1)
	p.Push(1, 2)
	p.Push(1, 3)
	if p.CanPush(2) {
		t.Fatal("full pipe must refuse pushes regardless of cycle")
	}
	popReady(p, 10)
	if !p.CanPush(10) {
		t.Fatal("pop should free capacity")
	}
}

func TestPipePeek(t *testing.T) {
	p := NewPipe[string](1, 1, 4)
	p.Push(0, "x")
	if _, ok := p.HeadReady(0); ok {
		t.Fatal("peek before ready")
	}
	v, ok := p.HeadReady(1)
	if !ok || *v != "x" {
		t.Fatal("peek at ready failed")
	}
	if p.Len() != 1 {
		t.Fatal("peek must not remove")
	}
	p.Drop()
	if p.Len() != 0 {
		t.Fatal("drop must remove")
	}
}

// TestPipeSlotsInPlace checks the in-place trio on a wrapping ring: an item
// filled through PushSlot comes out of HeadReady as filled, edits through
// HeadReady stick, and every PushSlot hands out a zero item even where a
// dropped or flushed item lived.
func TestPipeSlotsInPlace(t *testing.T) {
	type item struct{ a, b int }
	p := NewPipe[item](1, 1, 2)
	for c := int64(0); c < 6; c++ {
		v := p.PushSlot(c)
		if *v != (item{}) {
			t.Fatalf("cycle %d: PushSlot handed out %+v, want a zero item", c, *v)
		}
		v.a = int(c)
		h, ok := p.HeadReady(c + 1)
		if !ok || h.a != int(c) {
			t.Fatalf("cycle %d: HeadReady = %+v, %v", c, h, ok)
		}
		h.b = 7
		if got, _ := p.HeadReady(c + 1); got.b != 7 {
			t.Fatalf("cycle %d: edit through HeadReady lost", c)
		}
		if c%2 == 0 {
			p.Drop()
		} else {
			p.Flush(nil)
		}
	}
}

func TestPipeFlush(t *testing.T) {
	p := NewPipe[int](2, 2, 8)
	p.Push(0, 1)
	p.Push(0, 2)
	p.Flush(nil)
	if p.Len() != 0 {
		t.Fatal("flush incomplete")
	}
	if _, ok := popReady(p, 100); ok {
		t.Fatal("flushed pipe returned an item")
	}
	// Width accounting resets with the flush.
	p.Push(0, 3)
	p.Push(0, 4)
	if p.CanPush(0) {
		t.Fatal("width limit should apply after flush")
	}
}

// TestPipeFlushReleasesInFlight checks the release callback on a ring that
// has wrapped: every in-flight value is handed back exactly once, oldest
// first, and the pipe is empty afterwards.
func TestPipeFlushReleasesInFlight(t *testing.T) {
	p := NewPipe[int](1, 2, 4)
	next := 0
	var live []int
	for c := int64(0); c < 5; c++ {
		// Pop one, push up to two: the head walks around the 4-slot ring.
		if v, ok := popReady(p, c); ok {
			if v != live[0] {
				t.Fatalf("cycle %d popped %d, want %d", c, v, live[0])
			}
			live = live[1:]
		}
		for p.CanPush(c) {
			p.Push(c, next)
			live = append(live, next)
			next++
		}
	}
	if p.Len() != len(live) || len(live) < 2 {
		t.Fatalf("setup: %d in flight, tracked %v", p.Len(), live)
	}
	var got []int
	p.Flush(func(v int) { got = append(got, v) })
	if !reflect.DeepEqual(got, live) {
		t.Errorf("flush released %v, want in-flight FIFO %v", got, live)
	}
	if p.Len() != 0 {
		t.Errorf("flush left %d in flight", p.Len())
	}
	if _, ok := popReady(p, 100); ok {
		t.Error("flushed pipe returned an item")
	}
	got = got[:0]
	p.Flush(func(v int) { got = append(got, v) })
	if len(got) != 0 {
		t.Errorf("flushing an empty pipe released %v", got)
	}
}

func TestPipePushPanicsWhenFull(t *testing.T) {
	p := NewPipe[int](1, 1, 1)
	p.Push(0, 1)
	defer func() {
		if recover() == nil {
			t.Error("push on full pipe should panic")
		}
	}()
	p.Push(1, 2)
}

func TestPipeDegenerateParams(t *testing.T) {
	p := NewPipe[int](0, 0, 0) // clamped to sane minimums
	p.Push(0, 7)
	if v, ok := popReady(p, 1); !ok || v != 7 {
		t.Fatal("clamped pipe broken")
	}
}
