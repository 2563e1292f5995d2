package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// spec is the part of BENCHMARK.json -compare reads: the bounds live there
// and nowhere else.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func loadReports(paths []string) ([]*report, error) {
	var out []*report
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(raw, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, &rep)
	}
	return out, nil
}

// values collects one (workload, metric) across reports.
func values(reps []*report, wl, name string) []float64 {
	var out []float64
	for _, rep := range reps {
		for _, w := range rep.Workloads {
			if m, ok := w.Metrics[name]; ok && w.Name == wl {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// Verdicts of one (workload, metric) pair.
const (
	within     = "within-bound"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict compares the change (a) with the baseline (b). A median worse by
// more than the bound is worse; a spread wider than the bound on either
// side leaves the pair unresolved, unless every run of the change reads
// better than every run of the baseline.
func verdict(a, b []float64, lowerBetter bool, bound float64) (string, float64) {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	change := (ma - mb) / mb
	if !lowerBetter {
		change = -change
	}
	spread := math.Max(iqrShare(a), iqrShare(b))
	switch {
	case spread > bound && !allBetter(a, b, lowerBetter):
		return unresolved, change
	case change > bound:
		return worse, change
	}
	return within, change
}

func iqrShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

func allBetter(a, b []float64, lowerBetter bool) bool {
	for _, x := range a {
		for _, y := range b {
			if lowerBetter && x >= y || !lowerBetter && x <= y {
				return false
			}
		}
	}
	return true
}

// compareMain prints, for every workload and end-to-end metric, the median
// and quartiles of each side and a verdict, and exits 1 if any pair is
// worse than its bound.
func compareMain(root string, aPaths, bPaths []string, stdout, stderr io.Writer) int {
	s, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	a, err := loadReports(aPaths)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := loadReports(bPaths)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-13s %-15s %28s %28s %8s %6s  %s\n", "workload", "metric", "change median [q1, q3]", "baseline median [q1, q3]", "worse", "bound", "verdict")
	code := 0
	for _, w := range s.Workloads {
		for _, m := range s.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-13s %-15s missing (%d change, %d baseline runs)\n", w.Name, m.Name, len(va), len(vb))
				code = 1
				continue
			}
			v, change := verdict(va, vb, m.Better == "lower", m.Bound)
			if v == worse {
				code = 1
			}
			fmt.Fprintf(stdout, "%-13s %-15s %28s %28s %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, spreadText(va), spreadText(vb), 100*change, 100*m.Bound, v)
		}
	}
	return code
}

func spreadText(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}
