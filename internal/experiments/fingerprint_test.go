package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"uopsim/internal/runcache"
	"uopsim/internal/workload"
)

var updateFingerprints = flag.Bool("update-fingerprints", false, "rewrite testdata/request_fingerprints.json from the current encoder")

const fingerprintFile = "testdata/request_fingerprints.json"

// goldenLengths are the run lengths of testdata/golden_metrics.json.
const goldenWarmup, goldenMeasure = 2_000, 10_000

// fingerprintCases names the requests whose fingerprints the fixture pins:
// every scheme at the golden lengths, full and sampled, a compaction bound
// above the default, and an explicit Config override.
func fingerprintCases() map[string]PointRequest {
	workloads := []string{"bm_cc", "redis", "jvm", "bm_z", "nutch"}
	cases := map[string]PointRequest{}
	for i, sc := range Schemes(2) {
		full := PointRequest{Workload: workloads[i], Scheme: sc.Name, Capacity: 2048,
			Warmup: goldenWarmup, Measure: goldenMeasure}
		cases["full/"+sc.Name] = full
		sampled := full
		sampled.Sampling = &SamplingRequest{Intervals: 4, IntervalInsts: 1_000, WarmupInsts: 500}
		cases["sampled/"+sc.Name] = sampled
	}
	cases["max_entries=3"] = PointRequest{Workload: "bm_z", Scheme: "F-PWAC", Capacity: 4096, MaxEntries: 3,
		Warmup: goldenWarmup, Measure: goldenMeasure}
	cfg := Schemes(2)[2].Configure(1024)
	cfg.UopQueueSize = 96
	cfg.Backend.ROBSize = 160
	cases["config"] = PointRequest{Workload: "jvm", Config: &cfg, Warmup: goldenWarmup, Measure: goldenMeasure}
	cases["defaults"] = PointRequest{Workload: "redis"}
	return cases
}

// TestRequestFingerprintsPinned is the oracle behind every stored blob: a
// warehouse addresses results by these hex values, so an encoder change
// that moves one of them orphans every blob written before it. Regenerate
// with -update-fingerprints only alongside a deliberate SimVersion or
// GenVersion bump.
func TestRequestFingerprintsPinned(t *testing.T) {
	got := map[string]string{}
	for name, req := range fingerprintCases() {
		req = req.WithDefaults()
		if err := req.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fp, err := req.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = string(fp)
	}
	path := filepath.FromSlash(fingerprintFile)
	if *updateFingerprints {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with go test ./internal/experiments -run TestRequestFingerprintsPinned -update-fingerprints)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("fixture has %d fingerprints, the cases %d", len(want), len(got))
	}
	for name, fp := range got {
		if want[name] != fp {
			t.Errorf("%s: fingerprint %s, fixture %s", name, fp, want[name])
		}
	}
}

// TestFingerprintAllocBound keeps fingerprinting off the warm path's
// allocation budget: the canonical buffer and hash state are pooled, so a
// request's fingerprint costs a handful of allocations, not one per field.
func TestFingerprintAllocBound(t *testing.T) {
	req := PointRequest{Workload: "bm_cc", Scheme: "F-PWAC", Capacity: 2048,
		Warmup: goldenWarmup, Measure: goldenMeasure}.WithDefaults()
	if _, err := req.Fingerprint(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { _, _ = req.Fingerprint() }); n > 10 {
		t.Fatalf("PointRequest.Fingerprint allocates %.0f times, want <= 10", n)
	}
}

// TestFeatureVectorsPinned pins the bytes of every feature vector a sweep
// stores: warehouse records carry them, and the surrogate's exact-match
// tier keys on their canonical form, so an encoder change that moves one
// byte strands every stored record's exact hit. The digests hash each
// pair as %q=%q; over single-thread points (every workload × scheme at
// three capacities) and SMT pairs (each workload with the next, every
// scheme, 2048 uops).
func TestFeatureVectorsPinned(t *testing.T) {
	digest := func(h hash.Hash, f runcache.Features) {
		for _, kv := range f {
			fmt.Fprintf(h, "%q=%q;", kv.Key, kv.Value)
		}
	}
	names := workload.Names()
	single := sha256.New()
	for _, w := range names {
		for _, s := range Schemes(2) {
			for _, c := range []int{256, 2048, 16384} {
				f, err := FeaturesForPoint(Point{w, s, c}, Params{})
				if err != nil {
					t.Fatal(err)
				}
				digest(single, f)
			}
		}
	}
	smt := sha256.New()
	for i := range names {
		a, err := workload.Lookup(names[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := workload.Lookup(names[(i+1)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range Schemes(2) {
			f, err := smtFeatures(Params{}.withDefaults(), a, b, s.Configure(2048))
			if err != nil {
				t.Fatal(err)
			}
			digest(smt, f)
		}
	}
	for _, c := range []struct {
		name string
		h    hash.Hash
		want string
	}{
		{"single-thread", single, "0553eb4df89a7c9d9fbe54aa1d90187c287fba3b24b4e5cf7017ab9db16974c6"},
		{"smt", smt, "da46654d016bfda4af0b549e4951c2f0a1dc14b6f6427d162bec643aa90ef5d0"},
	} {
		if got := hex.EncodeToString(c.h.Sum(nil)); got != c.want {
			t.Errorf("%s feature vectors digest to %s, want %s", c.name, got, c.want)
		}
	}
}
