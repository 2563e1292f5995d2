// Command uopsim runs a single simulation of one Table II workload on one
// uop cache design point and prints its metrics.
//
// Usage:
//
//	uopsim -workload bm_cc -scheme f-pwac -capacity 2048 -insts 300000
//	uopsim -workload bm_cc -metrics metrics.json -trace tail.log
//	uopsim -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"uopsim"
)

func main() {
	var (
		workloadName = flag.String("workload", "bm_cc", "Table II workload name (-list to enumerate)")
		scheme       = flag.String("scheme", "baseline", "uop cache scheme: baseline, clasp, rac, pwac, f-pwac")
		capacity     = flag.Int("capacity", 2048, "uop cache capacity in uops (2048..65536, power-of-two sets)")
		maxEntries   = flag.Int("max-entries", 2, "max compacted entries per line (compaction schemes)")
		warmup       = flag.Uint64("warmup", 100_000, "warmup instructions (excluded from metrics)")
		insts        = flag.Uint64("insts", 300_000, "measured instructions")
		list         = flag.Bool("list", false, "list workloads and exit")
		verbose      = flag.Bool("v", false, "also print uop cache entry statistics")
		asJSON       = flag.Bool("json", false, "emit metrics as JSON (machine-readable)")
		metricsOut   = flag.String("metrics", "", "write the measured window of the metrics registry as JSON to this file (\"-\" for stdout)")
		promOut      = flag.String("prom", "", "write the measured window in Prometheus text format to this file (\"-\" for stdout)")
		traceOut     = flag.String("trace", "", "record pipeline events and dump the last -trace-depth of them to this file (\"-\" for stdout)")
		traceDepth   = flag.Int("trace-depth", 4096, "ring capacity for -trace event recording")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads (Table II):")
		for _, p := range uopsim.Workloads() {
			fmt.Printf("  %-12s %-14s %s\n", p.Name, p.Suite, p.Description)
		}
		return
	}

	var cfg uopsim.Config
	found := false
	for _, sc := range uopsim.Schemes(*maxEntries) {
		if strings.EqualFold(sc.Name, *scheme) {
			cfg = sc.Configure(*capacity)
			found = true
			break
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "uopsim: unknown scheme %q (baseline, clasp, rac, pwac, f-pwac)\n", *scheme)
		os.Exit(2)
	}

	sim, err := uopsim.NewSimulator(cfg, *workloadName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uopsim:", err)
		os.Exit(1)
	}
	var ring *uopsim.RingObserver
	if *traceOut != "" {
		ring = uopsim.NewRingObserver(*traceDepth)
		sim.SetObserver(ring)
	}
	m, err := sim.RunMeasured(*warmup, *insts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uopsim:", err)
		os.Exit(1)
	}
	window := sim.Window() // counts what m does; the live registry counts the warmup too
	if *metricsOut != "" {
		if err := writeTo(*metricsOut, window.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "uopsim:", err)
			os.Exit(1)
		}
	}
	if *promOut != "" {
		if err := writeTo(*promOut, func(w io.Writer) error { return window.WritePrometheus(w, "uopsim") }); err != nil {
			fmt.Fprintln(os.Stderr, "uopsim:", err)
			os.Exit(1)
		}
	}
	if ring != nil {
		if err := writeTo(*traceOut, ring.Dump); err != nil {
			fmt.Fprintln(os.Stderr, "uopsim:", err)
			os.Exit(1)
		}
	}
	if *asJSON {
		st := sim.UopCacheStats()
		r, pw, f := st.AllocDistribution()
		out := map[string]any{
			"workload": *workloadName,
			"scheme":   *scheme,
			"capacity": *capacity,
			"metrics":  m,
			"uopcache": map[string]any{
				"fills":             st.Fills.Value(),
				"hitRate":           st.HitRate(),
				"takenTermFraction": st.TakenTermFraction(),
				"spanFraction":      st.SpanFraction(),
				"compactedFraction": st.CompactedFraction(),
				"sizeFractions": []float64{
					st.SizeHist.Fraction(0), st.SizeHist.Fraction(1), st.SizeHist.Fraction(2),
				},
				"allocDistribution": map[string]float64{"rac": r, "pwac": pw, "fpwac": f},
			},
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "uopsim:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("workload=%s scheme=%s capacity=%d\n", *workloadName, *scheme, *capacity)
	fmt.Printf("  UPC              %8.3f\n", m.UPC)
	fmt.Printf("  IPC              %8.3f\n", m.IPC)
	fmt.Printf("  dispatch BW      %8.3f uops/cycle\n", m.DispatchBW)
	fmt.Printf("  OC fetch ratio   %8.3f\n", m.OCFetchRatio)
	fmt.Printf("  OC hit rate      %8.3f\n", m.OCHitRate)
	fmt.Printf("  branch MPKI      %8.2f\n", m.BranchMPKI)
	fmt.Printf("  mispredict lat.  %8.1f cycles\n", m.AvgMispLatency)
	fmt.Printf("  decoder power    %8.3f (model units/cycle)\n", m.DecoderPower)
	fmt.Printf("  uops by source   OC=%d IC=%d LC=%d\n", m.UopsOC, m.UopsIC, m.UopsLC)

	if *verbose {
		st := sim.UopCacheStats()
		r, pw, f := st.AllocDistribution()
		fmt.Printf("uop cache entries:\n")
		fmt.Printf("  fills=%d  sizes: <20B %.1f%%  20-39B %.1f%%  40-64B %.1f%%\n",
			st.Fills.Value(), 100*st.SizeHist.Fraction(0), 100*st.SizeHist.Fraction(1), 100*st.SizeHist.Fraction(2))
		fmt.Printf("  taken-terminated %.1f%%  spanning %.1f%%  compacted fills %.1f%%\n",
			100*st.TakenTermFraction(), 100*st.SpanFraction(), 100*st.CompactedFraction())
		fmt.Printf("  alloc: RAC %.1f%% PWAC %.1f%% F-PWAC %.1f%%\n", 100*r, 100*pw, 100*f)
	}
}

// writeTo streams write(w) into path, with "-" meaning stdout.
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
