package cluster

import (
	"runtime"
	"testing"

	"uopsim/internal/server"
)

// TestWarmHitAllocBound bounds what a memoised answer costs the whole
// path — client, gateway hop and shard, all in this process — in bytes
// and objects allocated per call. A warm hit runs no simulation, so its
// garbage is serving overhead: fingerprinting, reading each body once at
// its final size and decoding the snapshot into one slice with interned
// paths keep it near the size of the answer itself, and the object count
// independent of how many samples the snapshot holds.
func TestWarmHitAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not representative under -race: sync.Pool drops buffers on purpose")
	}
	_, gwURL, _ := newTestCluster(t, 1)
	c := server.NewClient(gwURL)
	req := server.SimulateRequest{PointRequest: testPoints(1)[0]}
	if _, err := c.Simulate(req); err != nil {
		t.Fatal(err)
	}
	const calls = 200
	for i := 0; i < 10; i++ { // settle pools and keep-alive connections
		if _, err := c.Simulate(req); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		resp, err := c.Simulate(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Resolution != "memo" {
			t.Fatalf("call %d resolved %q, want a memo hit", i, resp.Resolution)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls / 1024
	objects := float64(after.Mallocs-before.Mallocs) / calls
	t.Logf("warm hit: %.1f KiB, %.0f objects per call", perCall, objects)
	if perCall > 50 {
		t.Fatalf("a warm hit allocates %.1f KiB per call, want <= 50", perCall)
	}
	if objects > warmHitObjectBound {
		t.Fatalf("a warm hit allocates %.0f objects per call, want <= %d", objects, warmHitObjectBound)
	}
}

// warmHitObjectBound is the measured warm-hit cost (229 objects per call;
// 446 when each of the snapshot's 98 samples allocated its path and kind)
// plus 15% headroom.
const warmHitObjectBound = 265

// TestEstimateAllocBound bounds what a surrogate-served estimate costs the
// whole path, the way TestWarmHitAllocBound bounds a warm hit. No
// simulation runs, so the garbage is serving overhead plus the fast tier
// itself: the request's feature vector, built in one buffer, and one k-NN
// query that keys its maps with stack buffers instead of canonical strings.
func TestEstimateAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not representative under -race: sync.Pool drops buffers on purpose")
	}
	_, gwURL, _ := newTestCluster(t, 1)
	c := server.NewClient(gwURL)
	base := testPoints(1)[0]
	for _, capacity := range []int{1024, 2048, 4096} {
		pt := base
		pt.Capacity = capacity
		if _, err := c.Simulate(server.SimulateRequest{PointRequest: pt}); err != nil {
			t.Fatal(err)
		}
	}
	req := server.EstimateRequest{PointRequest: base, MinConfidence: 1e-9}
	req.Capacity = 8192
	estimate := func() {
		t.Helper()
		resp, err := c.Estimate(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != "surrogate" || resp.Exact {
			t.Fatalf("estimate answered by %q (exact %v), want a surrogate interpolation", resp.Source, resp.Exact)
		}
	}
	const calls = 200
	for i := 0; i < 10; i++ { // settle pools and keep-alive connections
		estimate()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		estimate()
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls / 1024
	objects := float64(after.Mallocs-before.Mallocs) / calls
	t.Logf("estimate: %.1f KiB, %.0f objects per call", perCall, objects)
	if perCall > estimateKiBBound {
		t.Fatalf("an estimate allocates %.1f KiB per call, want <= %d", perCall, estimateKiBBound)
	}
	if objects > estimateObjectBound {
		t.Fatalf("an estimate allocates %.0f objects per call, want <= %d", objects, estimateObjectBound)
	}
}

// The estimate bounds are the measured cost (24.9 KiB and 309 objects per
// call; 36.5 KiB and 443 when the feature vector concatenated every key
// and Predict built canonical strings and a map per query) plus 15%.
const (
	estimateKiBBound    = 29
	estimateObjectBound = 355
)
