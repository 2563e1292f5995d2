package server

import (
	"errors"
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

// TestWithRetry runs the shared 429 loop against a fake call that answers
// 429 a fixed number of times before it succeeds.
func TestWithRetry(t *testing.T) {
	boom := errors.New("connection refused")
	for _, tc := range []struct {
		name       string
		cfg        LoadConfig
		fails      int   // 429s before the call succeeds
		err        error // returned instead of a 429, when set
		retryAfter time.Duration
		wantCalls  int
		wantRetry  int
		want429    int
		wantErr    bool
	}{
		{name: "success after k 429s", cfg: LoadConfig{Retries: 3, RetryDelay: time.Millisecond},
			fails: 2, wantCalls: 3, wantRetry: 2, want429: 2},
		{name: "429 past Retries fails", cfg: LoadConfig{Retries: 2, RetryDelay: time.Millisecond},
			fails: 100, wantCalls: 3, wantRetry: 2, want429: 3, wantErr: true},
		{name: "negative Retries makes one attempt", cfg: LoadConfig{Retries: -1},
			fails: 100, wantCalls: 1, wantRetry: 0, want429: 1, wantErr: true},
		{name: "non-429 error is not retried", cfg: LoadConfig{Retries: 3},
			err: boom, wantCalls: 1, wantErr: true},
		{name: "non-429 status is not retried", cfg: LoadConfig{Retries: 3},
			err: &StatusError{Code: 503}, wantCalls: 1, wantErr: true},
		{name: "RetryDelay caps a longer Retry-After", cfg: LoadConfig{Retries: 1, RetryDelay: time.Millisecond},
			fails: 1, retryAfter: time.Hour, wantCalls: 2, wantRetry: 1, want429: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				calls, got, retries, n429 int
				err                       error
			)
			done := make(chan struct{})
			go func() {
				defer close(done)
				got, retries, n429, err = withRetry(tc.cfg, func() (int, error) {
					calls++
					if tc.err != nil {
						return 0, tc.err
					}
					if calls <= tc.fails {
						return 0, &StatusError{Code: 429, RetryAfter: tc.retryAfter}
					}
					return 42, nil
				})
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("still sleeping after 10s: RetryDelay did not cap the Retry-After hint")
			}
			if calls != tc.wantCalls || retries != tc.wantRetry || n429 != tc.want429 {
				t.Fatalf("calls=%d retries=%d status429=%d, want %d/%d/%d",
					calls, retries, n429, tc.wantCalls, tc.wantRetry, tc.want429)
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if tc.err != nil && err != tc.err {
				t.Fatalf("err = %v, want the call's own %v", err, tc.err)
			}
			if !tc.wantErr && got != 42 {
				t.Fatalf("answer = %d, want 42", got)
			}
		})
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
