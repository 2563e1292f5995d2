package main

import (
	"fmt"
	"math/rand"
	"strings"

	"uopsim/internal/experiments"
	"uopsim/internal/pipeline"
	"uopsim/internal/workload"
)

// clients is the closed-loop caller count: one per core of the two-core
// machines the baseline was taken on. Every real caller of the stack
// (uopload, sweeps, the gateway itself) waits for its reply, so a closed
// loop is the faithful shape.
const clients = 2

// Golden run lengths: the warm and estimate sets sit at the lengths of
// testdata/golden_metrics.json, so the warm answers can be checked against
// it bit for bit.
const (
	goldenWarmup  = 2000
	goldenMeasure = 10000
	goldenPath    = "testdata/golden_metrics.json"
)

// mix is one workload: the traffic the clients send. Each exists to run
// one answer tier and to bypass the others; README.md gives the reasons.
type mix struct {
	name string
	// estimate sends /v1/estimate instead of /v1/simulate.
	estimate bool
	// cold points are each sent once; the run fails when a client's slice
	// runs out.
	cold bool
	// points builds the request set over the given profiles.
	points func(profiles []string) []experiments.PointRequest
}

var workloads = []mix{
	{name: "warm_hit", points: warmSet},
	{name: "estimate_knn", estimate: true, points: estimateSet},
	{name: "cold_sampled", cold: true, points: func(p []string) []experiments.PointRequest { return coldPool(p, true) }},
	{name: "cold_full", cold: true, points: func(p []string) []experiments.PointRequest { return coldPool(p, false) }},
}

func workloadByName(name string) (mix, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return mix{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// schemeNames are the paper's five design points in Schemes order.
func schemeNames() []string {
	var names []string
	for _, sc := range experiments.Schemes(2) {
		names = append(names, sc.Name)
	}
	return names
}

// compactingSchemes are the schemes whose configuration depends on the
// entries-per-line bound (RAC, PWAC, F-PWAC): only they differ at
// max_entries=3.
func compactingSchemes() []string {
	var names []string
	for _, sc := range experiments.Schemes(3) {
		if sc.MaxEntriesPerLine > 1 {
			names = append(names, sc.Name)
		}
	}
	return names
}

var (
	warmCapacities = []int{1024, 2048, 4096}
	coldCapacities = []int{256, 512, 1024, 2048, 4096, 8192, 16384}
)

func golden(wl, scheme string, capacity, maxEntries int) experiments.PointRequest {
	return experiments.PointRequest{
		Workload: wl, Scheme: scheme, Capacity: capacity, MaxEntries: maxEntries,
		Warmup: goldenWarmup, Measure: goldenMeasure,
	}.WithDefaults()
}

// warmSet is the prefilled set: every profile × scheme × {1024, 2048,
// 4096} at the golden lengths (195 points over the 13 profiles).
func warmSet(profiles []string) []experiments.PointRequest {
	var pts []experiments.PointRequest
	for _, wl := range profiles {
		for _, sc := range schemeNames() {
			for _, c := range warmCapacities {
				pts = append(pts, golden(wl, sc, c, 2))
			}
		}
	}
	return pts
}

// estimateSet is 247 points near the warm set but never stored: every
// scheme at capacities 512 and 8192, and the compacting schemes at
// max_entries=3 at the stored capacities.
func estimateSet(profiles []string) []experiments.PointRequest {
	var pts []experiments.PointRequest
	for _, wl := range profiles {
		for _, sc := range schemeNames() {
			for _, c := range []int{512, 8192} {
				pts = append(pts, golden(wl, sc, c, 2))
			}
		}
		for _, sc := range compactingSchemes() {
			for _, c := range warmCapacities {
				pts = append(pts, golden(wl, sc, c, 3))
			}
		}
	}
	return pts
}

// coldPool is 728 points no other workload stores: every profile ×
// capacity 256…16384 × (the five schemes + the compacting ones at
// max_entries=3), at the default full lengths or sampled over 1M
// instructions.
func coldPool(profiles []string, sampled bool) []experiments.PointRequest {
	var pts []experiments.PointRequest
	add := func(wl, sc string, c, maxEntries int) {
		pt := experiments.PointRequest{
			Workload: wl, Scheme: sc, Capacity: c, MaxEntries: maxEntries,
			Warmup: pipeline.DefaultWarmupInsts, Measure: pipeline.DefaultMeasureInsts,
		}
		if sampled {
			pt.Measure = 1_000_000
			pt.Sampling = &experiments.SamplingRequest{}
		}
		pts = append(pts, pt.WithDefaults())
	}
	for _, wl := range profiles {
		for _, c := range coldCapacities {
			for _, sc := range schemeNames() {
				add(wl, sc, c, 2)
			}
			for _, sc := range compactingSchemes() {
				add(wl, sc, c, 3)
			}
		}
	}
	return pts
}

// allProfiles is the default profile set: the 13 Table II workloads.
func allProfiles() []string { return workload.Names() }

// point is one request of a run with what its answers are checked against.
type point struct {
	req experiments.PointRequest
	// key identifies the point in spans at every layer.
	key string
	// fp is the locally computed fingerprint a simulate answer must carry.
	fp string
	// want is the in-process result a warm answer must equal.
	want *pipeline.Metrics
}

// pointKey is the identity spans carry; it covers every field of the wire
// request that selects a design point.
func pointKey(r experiments.PointRequest) string {
	return fmt.Sprintf("%s|%s|%d|%d|%d|%d|%t", r.Workload, strings.ToLower(r.Scheme), r.Capacity, r.MaxEntries, r.Warmup, r.Measure, r.Sampling != nil)
}

// slices orders pts with the seed and deals them round-robin to the
// clients: each client owns a disjoint slice, so a point has at most one
// request in flight, which is what makes span linking unambiguous.
//
// The order is a stratified shuffle: points are grouped by (profile,
// capacity), the groups and each group's points are shuffled, and the
// order takes one point from every group in turn. Simulation cost depends
// mostly on the profile and the capacity, so any stretch of a cold run
// sends the same mix whatever the seed, and the seed moves which points are
// sent, not how expensive they are.
func slices(pts []point, seed int64) [][]*point {
	rng := rand.New(rand.NewSource(seed))
	var groups [][]*point
	index := map[string]int{}
	for i := range pts {
		k := fmt.Sprintf("%s/%d", pts[i].req.Workload, pts[i].req.Capacity)
		g, ok := index[k]
		if !ok {
			g = len(groups)
			index[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], &pts[i])
	}
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	for _, g := range groups {
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	out := make([][]*point, clients)
	n := 0
	for round := 0; n < len(pts); round++ {
		for _, g := range groups {
			if round < len(g) {
				out[n%clients] = append(out[n%clients], g[round])
				n++
			}
		}
	}
	return out
}
