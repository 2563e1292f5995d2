package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// ringKeys builds a deterministic corpus shaped like real traffic: the
// ring's keys are runcache fingerprints (sha256 hex), so hashing arbitrary
// distinct strings through hash64 models them exactly.
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("point-%d", i)
	}
	return keys
}

func ringNodes(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("http://shard-%d:8077", i)
	}
	return nodes
}

// TestRingBalance bounds the max/mean shard load across fleet sizes 2–16:
// with DefaultVNodes virtual nodes per shard, no shard may own more than
// 1.7x its fair share of a 10k-key corpus. (Measured headroom: the worst
// observed ratio across these sizes is ~1.35.)
func TestRingBalance(t *testing.T) {
	keys := ringKeys(10_000)
	for n := 2; n <= 16; n++ {
		r := NewRing(ringNodes(n), 0)
		counts := make(map[string]int, n)
		for _, k := range keys {
			counts[r.Owner(k)]++
		}
		if len(counts) != n {
			t.Fatalf("%d nodes: only %d received keys", n, len(counts))
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		mean := float64(len(keys)) / float64(n)
		if ratio := float64(max) / mean; ratio > 1.7 {
			t.Errorf("%d nodes: max/mean = %.2f exceeds 1.7 (max shard owns %d of %d)", n, ratio, max, len(keys))
		}
	}
}

// TestRingMinimalRemapOnJoin verifies the consistent-hash contract: adding
// a node moves keys only TO the new node (never between survivors), and
// roughly 1/(n+1) of them.
func TestRingMinimalRemapOnJoin(t *testing.T) {
	keys := ringKeys(8_000)
	nodes := ringNodes(8)
	r := NewRing(nodes, 0)
	const joiner = "http://shard-new:8077"
	joined := NewRing(append(nodes, joiner), 0)
	moved := 0
	for _, k := range keys {
		before, after := r.Owner(k), joined.Owner(k)
		if after == before {
			continue
		}
		moved++
		if after != joiner {
			t.Fatalf("key %s moved between survivors: %s -> %s", k, before, after)
		}
	}
	fair := float64(len(keys)) / 9
	if f := float64(moved); f < 0.4*fair || f > 2.0*fair {
		t.Errorf("join remapped %d keys; want within [0.4, 2.0]x the fair share %.0f", moved, fair)
	}
}

// TestRingMinimalRemapOnLeave verifies the property the gateway's spill
// order relies on: while one node is down, the first live node in a key's
// Owners walk is exactly the key's owner on a ring built without that
// node. Spilling therefore sends every key where a smaller fleet would
// own it, and moves no key between two survivors.
func TestRingMinimalRemapOnLeave(t *testing.T) {
	keys := ringKeys(8_000)
	nodes := ringNodes(8)
	r := NewRing(nodes, 0)
	leaver := nodes[3]
	survivors := append(append([]string(nil), nodes[:3]...), nodes[4:]...)
	smaller := NewRing(survivors, 0)
	for _, k := range keys {
		spill := ""
		for _, o := range r.Owners(k, r.Len()) {
			if o != leaver {
				spill = o
				break
			}
		}
		if want := smaller.Owner(k); spill != want {
			t.Fatalf("key %s: first survivor in the spill order is %s, the ring without %s says %s", k, spill, leaver, want)
		}
	}
}

// TestRingDeterministicOwnership builds the ring from permuted node lists
// and requires identical assignments: ownership is a pure function of the
// member set, never of insertion order — the property that lets any
// gateway replica route identically.
func TestRingDeterministicOwnership(t *testing.T) {
	keys := ringKeys(2_000)
	nodes := ringNodes(6)
	ref := NewRing(nodes, 64)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		perm := make([]string, len(nodes))
		copy(perm, nodes)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		r := NewRing(perm, 64)
		for _, k := range keys {
			if got, want := r.Owner(k), ref.Owner(k); got != want {
				t.Fatalf("trial %d: key %s owned by %s, reference says %s", trial, k, got, want)
			}
		}
	}
}

// TestRingOwners checks the spill-over walk: distinct nodes, the true
// owner first, truncation at the member count.
func TestRingOwners(t *testing.T) {
	nodes := ringNodes(4)
	r := NewRing(nodes, 0)
	for _, k := range ringKeys(200) {
		owners := r.Owners(k, 10)
		if len(owners) != 4 {
			t.Fatalf("key %s: got %d owners, want all 4", k, len(owners))
		}
		if owners[0] != r.Owner(k) {
			t.Fatalf("key %s: Owners[0]=%s but Owner=%s", k, owners[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %s: duplicate owner %s", k, o)
			}
			seen[o] = true
		}
	}
	if got := r.Owners("x", 2); len(got) != 2 {
		t.Fatalf("Owners(x,2) returned %d nodes", len(got))
	}
	if got := r.Owners("x", 0); got != nil {
		t.Fatalf("Owners(x,0) = %v, want nil", got)
	}
	if empty := (&Ring{vnodes: 8}); empty.Owner("x") != "" || empty.Owners("x", 3) != nil {
		t.Fatal("empty ring must own nothing")
	}
}
