package smt

import (
	"testing"

	"uopsim/internal/pipeline"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

func mustProfile(t *testing.T, name string) *workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPairRunsBothThreads(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	pair, err := New(cfg, mustProfile(t, "bm_ds"), mustProfile(t, "redis"))
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := pair.RunMeasured(10_000, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Insts < 30_000 || b.Insts < 30_000 {
		t.Fatalf("threads under-ran: A=%d B=%d", a.Insts, b.Insts)
	}
	if a.UPC <= 0 || b.UPC <= 0 {
		t.Fatalf("degenerate UPC: %v / %v", a.UPC, b.UPC)
	}
}

// TestOracleSyncUnderSMT: each thread's consumed stream must still match its
// own architectural walker even with a co-runner churning the shared cache.
func TestOracleSyncUnderSMT(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	cfg.UopCache.MaxEntriesPerLine = 2
	cfg.UopCache.Alloc = uopcache.AllocRAC
	cfg.Limits.MaxICLines = 2
	cfg.UopCache.MaxICLines = 2
	pair, err := New(cfg, mustProfile(t, "bm_ds"), mustProfile(t, "bm_lla"))
	if err != nil {
		t.Fatal(err)
	}
	threads := []struct {
		name    string
		sim     *pipeline.Sim
		profile string
		base    uint64
	}{
		{"A", pair.A, "bm_ds", workload.CodeBase},
		{"B", pair.B, "bm_lla", ThreadBBase},
	}
	refs := make([]*workload.Walker, len(threads))
	for i, th := range threads {
		wl, err := workload.BuildAt(mustProfile(t, th.profile), th.base)
		if err != nil {
			t.Fatal(err)
		}
		ref, name, bad := workload.NewWalker(wl), th.name, 0
		refs[i] = ref
		th.sim.OnConsume = func(rec workload.Rec) {
			want := ref.Next()
			if rec != want && bad < 3 {
				t.Errorf("thread %s diverged: got %+v want %+v", name, rec, want)
				bad++
			}
		}
	}
	if err := pair.Run(40_000); err != nil {
		t.Fatal(err)
	}
	for i, th := range threads {
		if refs[i].Executed() < 40_000 {
			t.Errorf("thread %s consumed only %d records", th.name, refs[i].Executed())
		}
	}
}

// TestSharedCacheInterference: each thread alone enjoys a better fetch ratio
// than with a co-runner stealing half the shared capacity.
func TestSharedCacheInterference(t *testing.T) {
	cfg := pipeline.DefaultConfig()

	solo, err := pipeline.New(cfg, mustBuild(t, "bm_ds"))
	if err != nil {
		t.Fatal(err)
	}
	sm, err := solo.RunMeasured(20_000, 60_000)
	if err != nil {
		t.Fatal(err)
	}

	pair, err := New(cfg, mustProfile(t, "bm_ds"), mustProfile(t, "bm_cc"))
	if err != nil {
		t.Fatal(err)
	}
	am, _, err := pair.RunMeasured(20_000, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if am.OCFetchRatio >= sm.OCFetchRatio {
		t.Errorf("co-runner did not hurt fetch ratio: solo %.3f vs SMT %.3f",
			sm.OCFetchRatio, am.OCFetchRatio)
	}
}

func mustBuild(t *testing.T, name string) *workload.Workload {
	t.Helper()
	wl, err := workload.Build(mustProfile(t, name))
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func TestDisjointCodeRegions(t *testing.T) {
	wlB, err := workload.BuildAt(mustProfile(t, "bm_cc"), ThreadBBase)
	if err != nil {
		t.Fatal(err)
	}
	if wlB.Program.Base != ThreadBBase {
		t.Errorf("base = %#x", wlB.Program.Base)
	}
	wlA, _ := workload.Build(mustProfile(t, "bm_cc"))
	if wlA.Program.Limit > ThreadBBase {
		t.Fatal("thread A's code overlaps thread B's base")
	}
}
