package experiments

import (
	"strings"
	"testing"

	"uopsim/internal/runcache"
	"uopsim/internal/warehouse"
	"uopsim/internal/workload"
)

func TestPointRequestDefaults(t *testing.T) {
	r := PointRequest{Workload: "bm_cc"}.WithDefaults()
	if r.Scheme != "baseline" || r.Capacity != 2048 || r.MaxEntries != 2 {
		t.Fatalf("defaults = %+v, want baseline/2048/2", r)
	}
	def := Params{}.withDefaults()
	if r.Warmup != def.WarmupInsts || r.Measure != def.MeasureInsts {
		t.Fatalf("defaults carry run lengths %d/%d, want %d/%d",
			r.Warmup, r.Measure, def.WarmupInsts, def.MeasureInsts)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("defaulted request should validate: %v", err)
	}
}

func TestPointRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		req  PointRequest
		want string
	}{
		{"no workload", PointRequest{}.WithDefaults(), "needs a workload"},
		{"unknown workload", PointRequest{Workload: "nope"}.WithDefaults(), "unknown profile"},
		{"unknown scheme", PointRequest{Workload: "bm_cc", Scheme: "warp"}.WithDefaults(), "unknown scheme"},
		{"bad capacity", PointRequest{Workload: "bm_cc", Capacity: -8}.WithDefaults(), "capacity"},
		{"no measure", PointRequest{Workload: "bm_cc", Scheme: "baseline", Capacity: 2048, MaxEntries: 2}, "measure"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate()
			if err == nil {
				t.Fatalf("want error mentioning %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestPointRequestSchemeCaseInsensitive(t *testing.T) {
	for _, name := range []string{"clasp", "CLASP", "ClAsP", "f-pwac"} {
		r := PointRequest{Workload: "bm_cc", Scheme: name}.WithDefaults()
		if err := r.Validate(); err != nil {
			t.Fatalf("scheme %q should resolve: %v", name, err)
		}
	}
}

// TestRequestFingerprintMatchesSweep is the cache-sharing guarantee: a
// point asked of the daemon must hash to the very fingerprint a uopexp
// sweep submits for the same design point, or the two drivers would grow
// disjoint caches.
func TestRequestFingerprintMatchesSweep(t *testing.T) {
	p := Params{WarmupInsts: 1_000, MeasureInsts: 2_000}
	for _, sc := range Schemes(2) {
		pt := Point{Workload: "bm_cc", Scheme: sc, Capacity: 1024}
		prof, err := workload.ByName(pt.Workload)
		if err != nil {
			t.Fatal(err)
		}
		sweepFP, err := pointFingerprint(p, prof, sc.Configure(pt.Capacity))
		if err != nil {
			t.Fatal(err)
		}
		req := RequestForPoint(pt, p)
		if req.Config != nil {
			t.Fatalf("%s: catalog scheme should travel in named form, got Config override", sc.Name)
		}
		reqFP, err := req.WithDefaults().Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if reqFP != sweepFP {
			t.Fatalf("%s: request fingerprint %s != sweep fingerprint %s — daemon and sweep would not share blobs",
				sc.Name, reqFP, sweepFP)
		}
	}
}

// TestRequestForPointCustomScheme checks that a scheme the catalog does
// not reproduce travels as an explicit Config override with the same
// fingerprint.
func TestRequestForPointCustomScheme(t *testing.T) {
	sc := Schemes(2)[1]
	sc.Name = "tweaked"
	sc.MaxEntriesPerLine = 3
	pt := Point{Workload: "jvm", Scheme: sc, Capacity: 1024}
	p := Params{WarmupInsts: 1_000, MeasureInsts: 2_000}
	req := RequestForPoint(pt, p)
	if req.Config == nil {
		t.Fatal("custom scheme must travel as a Config override")
	}
	prof, err := workload.ByName(pt.Workload)
	if err != nil {
		t.Fatal(err)
	}
	wantFP, err := pointFingerprint(p, prof, sc.Configure(pt.Capacity))
	if err != nil {
		t.Fatal(err)
	}
	gotFP, err := req.WithDefaults().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if gotFP != wantFP {
		t.Fatalf("override fingerprint %s != direct fingerprint %s", gotFP, wantFP)
	}
}

// TestRequestResolveThroughEngine checks resolution reporting: first ask
// simulates, an identical ask is a memo hit, and a fresh engine with the
// same warehouse directory answers from disk.
func TestRequestResolveThroughEngine(t *testing.T) {
	dir := t.TempDir()
	eng, ws, err := NewWarehouseEngine(dir, warehouse.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	req := PointRequest{Workload: "bm_cc", Warmup: 500, Measure: 1_000}.WithDefaults()

	first, how, err := req.Resolve(eng)
	if err != nil {
		t.Fatal(err)
	}
	if how != runcache.ResolvedCompute {
		t.Fatalf("first resolve reported %s, want simulated", how)
	}
	if _, how, err = req.Resolve(eng); err != nil || how != runcache.ResolvedMemo {
		t.Fatalf("second resolve = (%s, %v), want memo hit", how, err)
	}

	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	eng2, ws2, err := NewWarehouseEngine(dir, warehouse.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	fromDisk, how, err := req.Resolve(eng2)
	if err != nil {
		t.Fatal(err)
	}
	if how != runcache.ResolvedDisk {
		t.Fatalf("fresh engine resolve reported %s, want disk", how)
	}
	if fromDisk.Metrics != first.Metrics {
		t.Fatalf("disk blob metrics diverge:\n%+v\n%+v", fromDisk.Metrics, first.Metrics)
	}

	// Engine-less resolution still works and reports a direct compute.
	direct, how, err := req.Resolve(nil)
	if err != nil || how != runcache.ResolvedCompute {
		t.Fatalf("nil-engine resolve = (%s, %v), want direct compute", how, err)
	}
	if direct.Metrics != first.Metrics {
		t.Fatal("direct resolution diverges from engine resolution")
	}
}
