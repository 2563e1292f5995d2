package reuse

import "testing"

func TestSliceReusesOnlyAMatchingLength(t *testing.T) {
	s := Slice[int](nil, 4)
	if len(s) != 4 {
		t.Fatalf("fresh slice has length %d, want 4", len(s))
	}
	for i := range s {
		s[i] = i + 1
	}
	r := Slice(s, 4)
	if &r[0] != &s[0] {
		t.Error("a slice of the requested length was not reused")
	}
	for i, v := range r {
		if v != 0 {
			t.Errorf("reused element %d = %d, want 0", i, v)
		}
	}
	for _, n := range []int{3, 5} {
		if g := Slice(s, n); len(g) != n || &g[0] == &s[0] {
			t.Errorf("Slice(len 4, %d) reused the array or has length %d", n, len(g))
		}
	}
}

func TestCapReusesAnyLargeEnoughArray(t *testing.T) {
	s := Cap[int](nil, 4)
	if len(s) != 4 {
		t.Fatalf("fresh slice has length %d, want 4", len(s))
	}
	for i := range s {
		s[i] = i + 1
	}
	for _, n := range []int{4, 3, 0} {
		r := Cap(s, n)
		if len(r) != n || cap(r) != cap(s) {
			t.Errorf("Cap(len 4, %d): length %d capacity %d, want the array reused", n, len(r), cap(r))
		}
		for i, v := range r {
			if v != 0 {
				t.Errorf("Cap(len 4, %d): element %d = %d, want 0", n, i, v)
			}
		}
	}
	if g := Cap(s, 5); len(g) != 5 || &g[0] == &s[0] {
		t.Errorf("Cap(cap 4, 5) reused the array or has length %d", len(g))
	}
}
