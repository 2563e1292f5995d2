package server

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"uopsim/internal/experiments"
	"uopsim/internal/runcache"
	"uopsim/internal/workload"
)

// TestLoadConfigPoints checks the unique-pool construction: correct count,
// all valid, all distinct fingerprints.
func TestLoadConfigPoints(t *testing.T) {
	cfg := LoadConfig{Unique: 10, Warmup: 1_000, Measure: 2_000}.withDefaults()
	pts := cfg.points()
	if len(pts) != 10 {
		t.Fatalf("points() built %d, want 10", len(pts))
	}
	seen := map[runcache.Fingerprint]int{}
	for i, pt := range pts {
		if err := pt.Validate(); err != nil {
			t.Fatalf("point %d invalid: %v", i, err)
		}
		fp, err := pt.Fingerprint()
		if err != nil {
			t.Fatalf("point %d fingerprint: %v", i, err)
		}
		if j, dup := seen[fp]; dup {
			t.Fatalf("points %d and %d share a fingerprint", j, i)
		}
		seen[fp] = i
	}
	for _, name := range cfg.Workloads {
		if _, err := workload.ByName(name); err != nil {
			t.Fatalf("default workload mix: %v", err)
		}
	}
}

// TestRunLoadSaturation drives an unpaced load at a 1-worker/1-slot server
// behind a slow stub resolver and asserts the backpressure round trip the
// acceptance criteria name: at least one 429 was observed, every 429 was
// retried to success, and nothing failed.
func TestRunLoadSaturation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	var calls atomic.Int64
	s.resolve = func(experiments.PreparedPoint) (experiments.PointResult, runcache.Resolution, error) {
		calls.Add(1)
		time.Sleep(10 * time.Millisecond) // slow enough that 8 clients pile up
		return experiments.PointResult{}, runcache.ResolvedMemo, nil
	}
	report, err := RunLoad(NewClient(ts.URL), LoadConfig{
		Requests:    24,
		Unique:      4,
		Concurrency: 8,
		Warmup:      1_000,
		Measure:     2_000,
		Seed:        1,
		Retries:     1_000, // retry until admitted; the assertion is zero failures
		RetryDelay:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Status429 == 0 {
		t.Fatal("saturating load never observed a 429")
	}
	if report.Failed != 0 {
		t.Fatalf("%d requests failed; every 429 should have been retried to success\n%s", report.Failed, report)
	}
	if report.OK != 24 {
		t.Fatalf("ok=%d, want 24\n%s", report.OK, report)
	}
	if report.Retries < report.Status429 {
		t.Fatalf("retries=%d < status429=%d: some 429 was not retried", report.Retries, report.Status429)
	}
	if got := calls.Load(); got != 24 {
		t.Fatalf("resolver ran %d times, want 24", got)
	}
	out := report.String()
	for _, want := range []string{"requests=24", "ok=24", "failed=0", "resolution memo=24"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report %q missing %q", out, want)
		}
	}
}

// TestRunSweepIntegrity replays the mix through /v1/sweep and checks the
// client-side index bookkeeping against a real engine.
func TestRunSweepIntegrity(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 32})
	report, err := RunSweep(NewClient(ts.URL), LoadConfig{
		Requests: 20,
		Unique:   5,
		Warmup:   1_000,
		Measure:  2_000,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.OK != 20 || report.Failed != 0 {
		t.Fatalf("ok=%d failed=%d, want 20/0", report.OK, report.Failed)
	}
	if st := s.Engine().Stats(); st.Simulated != 5 {
		t.Fatalf("engine simulated %d times for 20 requests over 5 points, want 5", st.Simulated)
	}
	if report.Deduped() != 15 {
		t.Fatalf("deduped=%d, want 15", report.Deduped())
	}
}
