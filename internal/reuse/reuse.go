// Package reuse holds the storage helper the simulator's components reset
// through: a component's constructor is its Reset run on empty storage, and
// a recycled component's Reset clears the arrays it already owns instead of
// allocating new ones.
package reuse

// Slice returns a zeroed slice of length n: s itself, cleared, when its
// length is n, and a new slice otherwise. Matching the length exactly,
// rather than reslicing any large-enough array, keeps a recycled component
// no bigger than its last configuration needed.
func Slice[T any](s []T, n int) []T {
	if len(s) != n {
		return make([]T, n)
	}
	clear(s)
	return s
}
