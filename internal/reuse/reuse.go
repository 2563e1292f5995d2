// Package reuse holds the storage helpers the simulator's components reset
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

// Cap returns a zeroed slice of length n: s's array, cleared, when its
// capacity is at least n, and a new array otherwise. Unlike Slice it keeps
// an array larger than the request, for a component whose size changes
// with almost every configuration: it holds the largest array it has
// needed instead of allocating one per change.
func Cap[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
