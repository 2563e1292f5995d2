package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"uopsim/internal/uopcache"
)

// tinyParams keeps experiment tests fast: two workloads, short runs.
func tinyParams() Params {
	return Params{
		WarmupInsts:  5_000,
		MeasureInsts: 20_000,
		Workloads:    []string{"bm_ds", "redis"},
		Parallel:     4,
	}
}

func TestSchemesShape(t *testing.T) {
	ss := Schemes(2)
	if len(ss) != 5 {
		t.Fatalf("schemes = %d, want 5", len(ss))
	}
	names := []string{"baseline", "CLASP", "RAC", "PWAC", "F-PWAC"}
	for i, want := range names {
		if ss[i].Name != want {
			t.Errorf("scheme %d = %q, want %q", i, ss[i].Name, want)
		}
	}
	if ss[0].CLASP || ss[0].MaxEntriesPerLine != 0 {
		t.Error("baseline must be unmodified")
	}
	for _, s := range ss[2:] {
		if !s.CLASP || s.MaxEntriesPerLine != 2 {
			t.Errorf("compaction scheme %s misconfigured: %+v", s.Name, s)
		}
	}
	if ss[4].Alloc != uopcache.AllocFPWAC {
		t.Error("F-PWAC alloc wrong")
	}
}

func TestSchemeConfigureValidates(t *testing.T) {
	for _, sc := range Schemes(3) {
		for _, c := range Capacities {
			cfg := sc.Configure(c)
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s@%d: %v", sc.Name, c, err)
			}
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 17 {
		t.Fatalf("registry has %d experiments, want 17", len(all))
	}
	for _, e := range all {
		if d, ok := ByID(e.ID); !ok || d == nil {
			t.Errorf("ByID(%q) failed", e.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown ID should not resolve")
	}
}

func TestSweepProducesAllRuns(t *testing.T) {
	p := tinyParams()
	base := Schemes(2)[0]
	pts := []Point{{"bm_ds", base, 2048}, {"redis", base, 2048}}
	runs, err := sweep(p, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %d", len(runs))
	}
	r := runs[key("bm_ds", "baseline", 2048)]
	if r.Metrics.Insts == 0 || len(r.Snapshot.Samples) == 0 {
		t.Error("run payload incomplete")
	}
	if r.Snapshot.Counter("oc.lookups") == 0 {
		t.Error("run snapshot missing uop cache activity")
	}
}

func TestSweepFeedsSnapshotSink(t *testing.T) {
	p := tinyParams()
	var sunk []Run
	p.SnapshotSink = func(r Run) { sunk = append(sunk, r) }
	base := Schemes(2)[0]
	pts := []Point{{"bm_ds", base, 2048}, {"redis", base, 2048}}
	if _, err := sweep(p, pts); err != nil {
		t.Fatal(err)
	}
	if len(sunk) != 2 {
		t.Fatalf("sink saw %d runs, want 2", len(sunk))
	}
	for _, r := range sunk {
		if len(r.Snapshot.Samples) == 0 {
			t.Errorf("sink run %s/%s has empty snapshot", r.Workload, r.Scheme)
		}
	}
}

func TestSweepSurfacesErrors(t *testing.T) {
	p := tinyParams()
	if _, err := sweep(p, []Point{{"not_a_workload", Schemes(2)[0], 2048}}); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestSweepReturnsPartialResults(t *testing.T) {
	p := tinyParams()
	base := Schemes(2)[0]
	pts := []Point{
		{"bm_ds", base, 2048},
		{"not_a_workload", base, 2048},
		{"redis", base, 2048},
	}
	runs, err := sweep(p, pts)
	if err == nil {
		t.Fatal("sweep with a bad job must error")
	}
	if !strings.Contains(err.Error(), "1 of 3 jobs failed") {
		t.Errorf("error should count failures, got: %v", err)
	}
	if !strings.Contains(err.Error(), "not_a_workload") {
		t.Errorf("error should carry the first underlying failure, got: %v", err)
	}
	if len(runs) != 2 {
		t.Fatalf("partial runs = %d, want 2", len(runs))
	}
	for _, name := range []string{"bm_ds", "redis"} {
		if runs[key(name, "baseline", 2048)].Metrics.Insts == 0 {
			t.Errorf("missing completed run for %s", name)
		}
	}
}

func TestParallelismDefaultsToNumCPU(t *testing.T) {
	if got := parallelism(Params{}, 1_000_000); got != runtime.NumCPU() {
		t.Errorf("parallelism(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := parallelism(Params{Parallel: 64}, 3); got != 3 {
		t.Errorf("parallelism must clamp to job count, got %d", got)
	}
}

func TestDriversRender(t *testing.T) {
	p := tinyParams()
	for _, e := range []struct {
		id   string
		want string
	}{
		{"tableII", "Table II"},
		{"fig5", "[1-19]B"},
		{"fig6", "taken"},
		{"fig16", "G.Mean"},
		{"fig19", "PWAC"},
	} {
		d, _ := ByID(e.id)
		var buf bytes.Buffer
		if err := d(&buf, p); err != nil {
			t.Fatalf("%s: %v", e.id, err)
		}
		out := buf.String()
		if !strings.Contains(out, e.want) {
			t.Errorf("%s output missing %q:\n%s", e.id, e.want, out)
		}
		// Both workloads appear as rows.
		if !strings.Contains(out, "bm_ds") || !strings.Contains(out, "redis") {
			t.Errorf("%s missing workload rows", e.id)
		}
	}
}

func TestGeoMeanImprovement(t *testing.T) {
	got := geoMeanImprovement([]float64{1.1, 1.1}, []float64{1.0, 1.0})
	if got < 9.9 || got > 10.1 {
		t.Errorf("improvement = %v, want ~10", got)
	}
}

func TestSortedWorkloadsOrder(t *testing.T) {
	p := Params{Workloads: []string{"redis", "sp_log_regr"}}
	ws := sortedWorkloads(p)
	if ws[0] != "sp_log_regr" || ws[1] != "redis" {
		t.Errorf("order = %v", ws)
	}
}

func TestAblationsDriver(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var buf bytes.Buffer
	p := Params{WarmupInsts: 3_000, MeasureInsts: 10_000, Workloads: []string{"bm_ds"}, Parallel: 4}
	if err := Ablations(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"no loop cache", "CLASP span 3 lines", "decode width 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing variant %q:\n%s", want, out)
		}
	}
}
