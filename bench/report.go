package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units; bench_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the cluster sees, reported by untraced runs.
var endToEnd = []metricDef{
	{"alloc_kib_per_req", "KiB/req"},
	{"allocs_per_req", "1/req"},
	{"heap_live_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer is what traced runs report, layer by layer.
var perLayer = []metricDef{
	{"client.latency_ms.p50", "ms"},
	{"client.throughput_rps", "1/s"},
	{"client.self_us.p50", "us"},
	{"cluster.self_us.p50", "us"},
	{"cluster.self_us.p95", "us"},
	{"cluster.hop_us.p50", "us"},
	{"server.handle_us.p50", "us"},
	{"server.handle_us.p95", "us"},
	{"server.admitted_per_req", "1/req"},
	{"server.rejected_per_req", "1/req"},
	{"cluster.retries_per_req", "1/req"},
	{"cluster.errors_per_req", "1/req"},
	{"runcache.hit_ratio", "ratio"},
	{"runcache.simulated_per_req", "1/req"},
	{"warehouse.puts_per_req", "1/req"},
	{"surrogate.inserts_per_req", "1/req"},
	{"surrogate.retrains_per_req", "1/req"},
	{"surrogate.served_ratio", "ratio"},
	{"surrogate.interpolated_ratio", "ratio"},
	{"runcache.fingerprint_us.p50", "us"},
	{"experiments.features_us.p50", "us"},
	{"runcache.memo_resolve_us.p50", "us"},
	{"experiments.result_bytes", "bytes"},
	{"experiments.result_marshal_us.p50", "us"},
	{"experiments.result_unmarshal_us.p50", "us"},
	{"warehouse.put_us.p50", "us"},
	{"warehouse.load_miss_us.p50", "us"},
	{"surrogate.predict_us.p50", "us"},
	{"surrogate.predict_us.p95", "us"},
	{"surrogate.fit_ms", "ms"},
	{"pipeline.step_ns_per_cycle", "ns/cycle"},
	{"pipeline.insts_per_s", "inst/s"},
	{"pipeline.ff_ns_per_inst", "ns/inst"},
	{"pipeline.new_us", "us"},
	{"pipeline.snapshot_us", "us"},
	{"workload.build_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// metric is one measured value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// workloadResult is one workload's outcome.
type workloadResult struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one invocation's results: what -out writes and -compare reads.
type report struct {
	Env       environment      `json:"environment"`
	Workloads []workloadResult `json:"workloads"`
}

// childFunc runs one workload in a fresh child and returns its result.
type childFunc func(w mix, setupOnly bool) (*childResult, error)

// subprocess runs each child as a fresh process of this binary, so set-up
// time and heap do not depend on which workload ran before.
func subprocess(ctx context.Context, cfg config) childFunc {
	return func(w mix, setupOnly bool) (*childResult, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		trace := "0"
		if cfg.trace {
			trace = "1"
			if cfg.spansFile != "" {
				trace = cfg.spansFile
			}
		}
		args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace}
		if setupOnly {
			args = append(args, "-setup-only")
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s child: %w", w.name, err)
		}
		var res childResult
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s child result: %w", w.name, err)
		}
		return &res, nil
	}
}

// measure runs every workload through runOne and aggregates.
func measure(ctx context.Context, cfg config, wls []mix, runOne childFunc, stderr io.Writer) (*report, error) {
	if cfg.setups <= 0 {
		cfg.setups = defaultSetups
	}
	rep := &report{Env: currentEnvironment(cfg)}
	var spans []workloadSpans
	for _, w := range wls {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var setups []float64
		if !cfg.trace {
			for i := 1; i < cfg.setups; i++ {
				res, err := runOne(w, true)
				if err != nil {
					return nil, err
				}
				setups = append(setups, res.SetupS)
			}
		}
		res, err := runOne(w, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, res.SetupS)
		wr := workloadResult{
			Name:      w.name,
			Correct:   res.Failed == 0,
			Attempted: res.Attempted,
			Failed:    res.Failed,
			Failures:  res.Failures,
			Metrics:   map[string]metric{},
		}
		for _, f := range res.Failures {
			fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, f)
		}
		if cfg.trace {
			for _, d := range perLayer {
				m, ok := res.Layers[d.name]
				if !ok {
					return nil, fmt.Errorf("%s: traced run did not report %s", w.name, d.name)
				}
				m.Unit = d.unit
				wr.Metrics[d.name] = m
			}
			spans = append(spans, workloadSpans{Name: w.name, Spans: res.Spans})
		} else {
			maps.Copy(wr.Metrics, res.Timed)
			wr.Metrics["setup_s"] = metric{Value: median(setups), N: len(setups)}
			for _, d := range endToEnd {
				m, ok := wr.Metrics[d.name]
				if !ok {
					return nil, fmt.Errorf("%s: run did not report %s", w.name, d.name)
				}
				m.Unit = d.unit
				wr.Metrics[d.name] = m
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if cfg.spansFile != "" {
		if err := writeJSONFile(cfg.spansFile, spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// workloadSpans is one workload's spans in the -trace file.
type workloadSpans struct {
	Name  string `json:"workload"`
	Spans []span `json:"spans"`
}

// defs is the metric list a report of this kind carries.
func (rep *report) defs() []metricDef {
	if rep.Env.Trace {
		return perLayer
	}
	return endToEnd
}

// print writes one line per workload and metric: name, value, unit and
// sample count.
func (rep *report) print(w io.Writer) {
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "%s correct=%t attempted=%d failed=%d\n", wr.Name, wr.Correct, wr.Attempted, wr.Failed)
		for _, d := range rep.defs() {
			m := wr.Metrics[d.name]
			fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", wr.Name, d.name, m.Value, m.Unit, m.N)
		}
	}
}

// summary is the machine-readable last line of a single-workload run.
func (wr workloadResult) summary() any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(wr.Metrics))
	for name, m := range wr.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics}
}

// percentile is the nearest-rank p-th percentile of xs (NaN when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// median of durations, in nanoseconds.
func median[T ~int64 | ~float64](xs []T) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return percentile(f, 50)
}

// quartiles are Python's statistics.quantiles(xs, n=4), the exclusive
// method, so spreads read the same here as in Python's tooling.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
