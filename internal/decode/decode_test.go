package decode

import (
	"reflect"
	"testing"
)

func TestPipeLatency(t *testing.T) {
	p := NewPipe[int](3, 2, 16)
	p.Push(10, 42)
	for c := int64(10); c < 13; c++ {
		if _, ok := p.PopReady(c); ok {
			t.Fatalf("item emerged at cycle %d, before latency elapsed", c)
		}
	}
	v, ok := p.PopReady(13)
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
		v, ok := p.PopReady(2)
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
	p.PopReady(10)
	if !p.CanPush(10) {
		t.Fatal("pop should free capacity")
	}
}

func TestPipePeek(t *testing.T) {
	p := NewPipe[string](1, 1, 4)
	p.Push(0, "x")
	if _, ok := p.PeekReady(0); ok {
		t.Fatal("peek before ready")
	}
	v, ok := p.PeekReady(1)
	if !ok || v != "x" {
		t.Fatal("peek at ready failed")
	}
	if p.Len() != 1 {
		t.Fatal("peek must not remove")
	}
	p.PopReady(1)
	if p.Len() != 0 {
		t.Fatal("pop must remove")
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
	if _, ok := p.PopReady(100); ok {
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
		if v, ok := p.PopReady(c); ok {
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
	if _, ok := p.PopReady(100); ok {
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
	if v, ok := p.PopReady(1); !ok || v != 7 {
		t.Fatal("clamped pipe broken")
	}
}
