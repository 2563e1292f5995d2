// Command bench measures the uopsim serving stack end to end, one answer
// tier per workload, and each layer of it from outside.
//
// Every workload runs in a fresh child process of this binary. The child
// boots three uopsimd shards and one uopgate gateway in-process on
// 127.0.0.1 listeners, built the way cmd/uopsimd and cmd/uopgate build
// them, and drives the gateway with two closed-loop server.Client callers.
// The parent aggregates, checks every answer, and prints one line per
// metric. See README.md for the workloads, metrics and span model.
//
// Usage (from the repository root):
//
//	bash bench/run.sh                                  # all workloads, untraced
//	bash bench/run.sh -workload warm_hit -seed 7 -seconds 10 -trace 0
//	bash bench/run.sh -trace trace.json -out traced.json
//	bash bench/run.sh -compare a1.json,a2.json -against b1.json,b2.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its exits and streams injectable: 0 on a completed run
// (even one whose checks failed; the result says so), 1 on a failure that
// produced no result, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wlName   = fs.String("workload", "", "run one workload (default: all, in order)")
		seed     = fs.Int64("seed", 1, "seed for the workload inputs (point order, client slices, checked points)")
		seconds  = fs.Float64("seconds", defaultSeconds, "timed traffic per workload, in seconds")
		traceArg = fs.String("trace", "0", "0 = untraced end-to-end metrics; 1 = traced per-layer metrics; any other value = traced, spans written to that file")
		out      = fs.String("out", "", "write the results as JSON to this file")
		cmpA     = fs.String("compare", "", "comma-separated result files of the change (with -against)")
		cmpB     = fs.String("against", "", "comma-separated result files of the baseline (with -compare)")
		child    = fs.Bool("child", false, "internal: run one workload in this process and print its raw result")
		setup    = fs.Bool("setup-only", false, "internal (with -child): stop after set-up")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *cmpA != "" || *cmpB != "" {
		if *cmpA == "" || *cmpB == "" {
			fmt.Fprintln(stderr, "bench: -compare and -against go together")
			return 2
		}
		return compareMain(root, strings.Split(*cmpA, ","), strings.Split(*cmpB, ","), stdout, stderr)
	}

	cfg := config{
		root:    root,
		seed:    *seed,
		seconds: *seconds,
		warmup:  warmupFor(*seconds),
	}
	switch *traceArg {
	case "0":
	case "1":
		cfg.trace = true
	default:
		cfg.trace, cfg.spansFile = true, *traceArg
	}
	if !(cfg.seconds > 0) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	var wls []mix
	if *wlName == "" {
		wls = workloads
	} else {
		w, ok := workloadByName(*wlName)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *wlName, strings.Join(workloadNames(), ", "))
			return 2
		}
		wls = []mix{w}
	}

	if *child {
		if len(wls) != 1 {
			fmt.Fprintln(stderr, "bench: -child needs -workload")
			return 2
		}
		res, err := runChild(cfg, wls[0], *setup)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	ctx, cancel := context.WithTimeout(context.Background(), runBudget(len(wls), cfg))
	defer cancel()
	rep, err := measure(ctx, cfg, wls, subprocess(ctx, cfg), stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep.print(stdout)
	if *out != "" {
		if err := writeJSONFile(*out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if len(wls) == 1 {
		// The last line is the machine-readable result of the one workload.
		if err := json.NewEncoder(stdout).Encode(rep.Workloads[0].summary()); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

// defaultSeconds is the timed window per workload. It matches run_seconds
// in BENCHMARK.json, sized so that ten runs of every workload on each of
// two builds, set-ups included, fit well within an hour on two cores.
const defaultSeconds = 10

// warmupFor sizes the untimed warm-up that precedes the timed window: a
// fifth of it, at most 5 s.
func warmupFor(seconds float64) float64 {
	return min(5, seconds/5)
}

// runBudget bounds a whole invocation, children included: set-ups, warm-up,
// timed traffic and checks, with a generous margin for a slow machine.
func runBudget(nWorkloads int, cfg config) time.Duration {
	per := time.Duration((cfg.seconds+cfg.warmup)*float64(time.Second)) + 60*time.Second
	return time.Duration(nWorkloads) * per
}

// findRoot walks up from the working directory to the repository root: the
// first directory holding both BENCHMARK.json and the golden metrics.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "BENCHMARK.json")) && fileExists(filepath.Join(dir, goldenPath)) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no directory above the working directory holds BENCHMARK.json and " + goldenPath)
		}
		dir = parent
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// environment records what a result file needs to be compared fairly.
type environment struct {
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	WarmupS   float64 `json:"warmup_s"`
	Clients   int     `json:"clients"`
	Trace     bool    `json:"trace"`
}

func currentEnvironment(cfg config) environment {
	return environment{
		NProc:     runtime.NumCPU(),
		GoVersion: runtime.Version(),
		Seed:      cfg.seed,
		Seconds:   cfg.seconds,
		WarmupS:   cfg.warmup,
		Clients:   clients,
		Trace:     cfg.trace,
	}
}
