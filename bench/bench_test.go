package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// inProcess runs each child in the test process instead of a fresh one.
func inProcess(cfg config) childFunc {
	return func(w mix, setupOnly bool) (*childResult, error) { return runChild(cfg, w, setupOnly) }
}

// tinyConfig is the runner at smoke-test scale: two profiles (30 warm
// points), one set-up, half a second of traffic.
func tinyConfig(t *testing.T) config {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return config{root: root, seed: 3, seconds: 0.5, warmup: warmupFor(0.5), profiles: []string{"redis", "bm_z"}, setups: 1}
}

func loadTestSpec(t *testing.T, root string) *spec {
	t.Helper()
	s, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesProgram keeps BENCHMARK.json and the program's metric and
// workload tables in step.
func TestSpecMatchesProgram(t *testing.T) {
	s := loadTestSpec(t, tinyConfig(t).root)
	var got []string
	for _, m := range s.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range s.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	var want []string
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		want = append(want, d.name+" "+d.unit)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json metrics\n%v\nprogram metrics\n%v", got, want)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
}

// TestEveryWorkloadReportsEveryMetric runs all four workloads untraced at
// tiny scale: every end-to-end metric is printed with its unit, every
// answer passes its checks, and the single-workload summary line parses.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	cfg := tinyConfig(t)
	var stderr bytes.Buffer
	rep, err := measure(context.Background(), cfg, workloads, inProcess(cfg), &stderr)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	var out bytes.Buffer
	rep.print(&out)
	for _, w := range workloads {
		wr := findWorkload(t, rep, w.name)
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct=%t failed=%d of %d: %v", w.name, wr.Correct, wr.Failed, wr.Attempted, wr.Failures)
		}
		for _, d := range endToEnd {
			m, ok := wr.Metrics[d.name]
			if !ok || m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) || m.N < 1 {
				t.Errorf("%s %s = %+v", w.name, d.name, m)
			}
			if !strings.Contains(out.String(), fmt.Sprintf("%s %s ", w.name, d.name)) {
				t.Errorf("%s %s not printed", w.name, d.name)
			}
		}
	}
	line, err := json.Marshal(rep.Workloads[0].summary())
	if err != nil {
		t.Fatal(err)
	}
	var sum map[string]any
	if err := json.Unmarshal(line, &sum); err != nil || len(sum) != 4 {
		t.Errorf("summary line %s: %v", line, err)
	}
}

// TestTracedSpansLink runs one workload traced: every per-layer metric is
// reported, and every hop and shard span has a parent in the request that
// caused it.
func TestTracedSpansLink(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.trace = true
	cfg.spansFile = filepath.Join(t.TempDir(), "spans.json")
	w, _ := workloadByName("warm_hit")
	rep, err := measure(context.Background(), cfg, []mix{w}, inProcess(cfg), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	wr := findWorkload(t, rep, w.name)
	if wr.Failed != 0 {
		t.Errorf("failures: %v", wr.Failures)
	}
	for _, d := range perLayer {
		if m, ok := wr.Metrics[d.name]; !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
			t.Errorf("%s = %+v", d.name, m)
		}
	}
	raw, err := os.ReadFile(cfg.spansFile)
	if err != nil {
		t.Fatal(err)
	}
	var file []workloadSpans
	if err := json.Unmarshal(raw, &file); err != nil || len(file) != 1 {
		t.Fatalf("spans file: %v (%d workloads)", err, len(file))
	}
	count := map[string]int{}
	for _, s := range file[0].Spans {
		count[s.Layer]++
		if (s.Layer == "hop" || s.Layer == "shard") && s.Parent < 0 {
			t.Errorf("%s span %d (%s) has no parent", s.Layer, s.ID, s.Point)
		}
		if s.Parent >= 0 && file[0].Spans[s.Trace].Layer != "client" {
			t.Errorf("span %d traces to a %s span", s.ID, file[0].Spans[s.Trace].Layer)
		}
	}
	for _, l := range layers {
		if count[l] == 0 {
			t.Errorf("no %s spans", l)
		}
	}
}

// TestPoolExhaustionFails: a cold client that runs out of never-sent
// points fails the run instead of reusing one.
func TestPoolExhaustionFails(t *testing.T) {
	pts := make([]point, 4)
	sent := map[*point]int{}
	issue := func(c int, p *point) error { sent[p]++; return nil }
	sl := [][]*point{{&pts[0], &pts[1]}, {&pts[2], &pts[3]}}
	start := time.Now()
	_, err := drive(sl[:1], []int{0}, true, time.Minute, false, issue)
	if !errors.Is(err, errPoolExhausted) {
		t.Fatalf("err = %v, want errPoolExhausted", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Errorf("exhaustion took %v to fire", time.Since(start))
	}
	if sent[&pts[0]] != 1 || sent[&pts[1]] != 1 {
		t.Errorf("cold points sent %d and %d times, want once each", sent[&pts[0]], sent[&pts[1]])
	}
}

// TestQuartilesMatchPython pins the spread arithmetic to Python's
// statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.1, 9.9}
	for _, tc := range []struct {
		name   string
		change []float64
		lower  bool
		want   string
	}{
		{"same", []float64{10, 10.05, 9.95}, true, within},
		{"slower", []float64{12, 12.1, 11.9}, true, worse},
		{"faster", []float64{8, 8.1, 7.9}, true, within},
		{"less throughput", []float64{8, 8.1, 7.9}, false, worse},
		{"noisy", []float64{8, 10, 14}, true, unresolved},
		{"noisy but every run better", []float64{5, 7, 9}, true, within},
	} {
		if got, _ := verdict(tc.change, base, tc.lower, 0.1); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func findWorkload(t *testing.T, rep *report, name string) workloadResult {
	t.Helper()
	for _, wr := range rep.Workloads {
		if wr.Name == name {
			return wr
		}
	}
	t.Fatalf("no result for %s", name)
	return workloadResult{}
}
