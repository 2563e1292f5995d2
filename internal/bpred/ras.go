package bpred

// RAS is a return-address stack with an architectural shadow copy used for
// repair: on a misprediction redirect the speculative stack is restored from
// the architectural one (which is maintained from correct-path call/return
// retirement order).
type RAS struct {
	spec rasStack
	arch rasStack
}

type rasStack struct {
	entries [64]uint64
	top     int // number of live entries, <= len(entries); older entries wrap
	base    int // index of the bottom element in the circular buffer
}

func (s *rasStack) push(addr uint64) {
	idx := (s.base + s.top) % len(s.entries)
	s.entries[idx] = addr
	if s.top < len(s.entries) {
		s.top++
	} else {
		s.base = (s.base + 1) % len(s.entries) // overwrite the oldest
	}
}

func (s *rasStack) pop() (uint64, bool) {
	if s.top == 0 {
		return 0, false
	}
	s.top--
	idx := (s.base + s.top) % len(s.entries)
	return s.entries[idx], true
}

// NewRAS returns an empty stack pair.
func NewRAS() *RAS { return &RAS{} }

// reset empties both stacks.
func (r *RAS) reset() { *r = RAS{} }

// SpecPush records a speculative call.
func (r *RAS) SpecPush(returnAddr uint64) { r.spec.push(returnAddr) }

// SpecPop predicts a return target. ok is false when the stack is empty.
func (r *RAS) SpecPop() (uint64, bool) { return r.spec.pop() }

// ArchPush records a correct-path call (in program order).
func (r *RAS) ArchPush(returnAddr uint64) { r.arch.push(returnAddr) }

// ArchPop records a correct-path return.
func (r *RAS) ArchPop() { r.arch.pop() }

// Repair restores the speculative stack from the architectural one
// (misprediction redirect).
func (r *RAS) Repair() { r.spec = r.arch }

// SpecDepth returns the speculative stack depth (tests/diagnostics).
func (r *RAS) SpecDepth() int { return r.spec.top }
