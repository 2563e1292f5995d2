package pipeline

import (
	"testing"

	"uopsim/internal/uopcache"
)

// TestDecoderPowerTracksOCCapacity ties the power model to the uop cache:
// more capacity -> more decoder bypass -> less decoder power.
func TestDecoderPowerTracksOCCapacity(t *testing.T) {
	var prev float64
	for i, capUops := range []int{2048, 65536} {
		wl := buildWL(t, "bm_cc")
		cfg := DefaultConfig()
		cfg.UopCache.CapacityUops = capUops
		sim, _ := New(cfg, wl)
		m, err := sim.RunMeasured(30_000, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && m.DecoderPower >= prev {
			t.Errorf("decoder power did not drop with capacity: %v -> %v", prev, m.DecoderPower)
		}
		prev = m.DecoderPower
	}
}

// TestColdStartDiscoversBranches: with a cold BTB the decoder must find
// direct jumps (decode redirects) and the machine must still make progress.
func TestColdStartDiscoversBranches(t *testing.T) {
	wl := buildWL(t, "bm_pb")
	sim, _ := New(DefaultConfig(), wl)
	if err := sim.Run(5_000); err != nil {
		t.Fatal(err)
	}
	if sim.m.decRedirects.Value() == 0 {
		t.Error("cold BTB should trigger decode-time redirects for direct jumps")
	}
	if sim.m.mispredicts.Value() == 0 {
		t.Error("cold predictors should mispredict somewhere in 5K insts")
	}
}

// TestWrongPathActivityExists: mispredictions must actually cause wrong-path
// fetch work (decoded wrong-path instructions and stalled dispatch slots) —
// that pollution is part of the model.
func TestWrongPathActivityExists(t *testing.T) {
	wl := buildWL(t, "bm_lla") // high MPKI
	sim, _ := New(DefaultConfig(), wl)
	if err := sim.Run(50_000); err != nil {
		t.Fatal(err)
	}
	if sim.m.wrongPathDecoded.Value() == 0 {
		t.Error("no wrong-path instructions were decoded despite mispredictions")
	}
	if sim.m.dispatchStallWP.Value() == 0 {
		t.Error("dispatch never stalled on a wrong-path head")
	}
}

// TestFillsOnlyOnMissPath: with a huge cache and a warm run, fills should
// become rare (steady state, nothing to install), while lookups keep
// hitting.
func TestFillsSettleWhenCacheFits(t *testing.T) {
	wl := buildWL(t, "bm_x64")
	cfg := DefaultConfig()
	cfg.UopCache.CapacityUops = 65536
	sim, _ := New(cfg, wl)
	if err := sim.Run(150_000); err != nil {
		t.Fatal(err)
	}
	a := sim.StatsSnapshot()
	if err := sim.Run(100_000); err != nil {
		t.Fatal(err)
	}
	m := metricsBetween(a, sim.StatsSnapshot())
	fillRate := float64(m.OCFills) / float64(m.Insts)
	if fillRate > 0.02 {
		t.Errorf("steady-state fill rate = %.4f fills/inst; cache should have settled", fillRate)
	}
	if m.OCHitRate < 0.9 {
		t.Errorf("steady-state hit rate = %v", m.OCHitRate)
	}
}

// TestCompactionRaisesUtilization: the paper's core claim at the structure
// level — compaction packs more bytes into the same lines.
func TestCompactionRaisesUtilization(t *testing.T) {
	util := func(alloc uopcache.Alloc, maxEntries int) float64 {
		wl := buildWL(t, "bm_cc")
		cfg := DefaultConfig()
		cfg.Limits.MaxICLines = 2
		cfg.UopCache.MaxICLines = 2
		if maxEntries > 1 {
			cfg.UopCache.MaxEntriesPerLine = maxEntries
			cfg.UopCache.Alloc = alloc
		}
		sim, _ := New(cfg, wl)
		if err := sim.Run(120_000); err != nil {
			t.Fatal(err)
		}
		return sim.UopCache().Utilization()
	}
	clasp := util(uopcache.AllocNone, 1)
	rac := util(uopcache.AllocRAC, 2)
	if rac <= clasp {
		t.Errorf("compaction did not raise line utilization: CLASP %.3f vs RAC %.3f", clasp, rac)
	}
}

// TestSequentialEntryChaining: after the first decode pass, sequential code
// should hit chains of entries (the OC path dominating the IC path on a
// loopy, cache-resident workload).
func TestSequentialEntryChaining(t *testing.T) {
	wl := buildWL(t, "redis")
	cfg := DefaultConfig()
	cfg.UopCache.CapacityUops = 65536
	sim, _ := New(cfg, wl)
	m, err := sim.RunMeasured(100_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.OCFetchRatio < 0.9 {
		t.Errorf("warm full-size cache fetch ratio = %v, want > 0.9", m.OCFetchRatio)
	}
}

// TestMispredictLatencyComponentsAreSane: fetch-to-resolve must exceed the
// backend's minimum resolution depth and stay well below pathological
// values.
func TestMispredictLatencyBounds(t *testing.T) {
	wl := buildWL(t, "bm_ds")
	sim, _ := New(DefaultConfig(), wl)
	m, err := sim.RunMeasured(30_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.AvgMispLatency < 5 {
		t.Errorf("mispredict latency %v below pipeline depth", m.AvgMispLatency)
	}
	if m.AvgMispLatency > 150 {
		t.Errorf("mispredict latency %v pathologically high", m.AvgMispLatency)
	}
}
