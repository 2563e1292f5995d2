// Compaction study (the paper's §V): run all five design points — baseline,
// CLASP, and CLASP+compaction with the RAC / PWAC / F-PWAC allocators — on
// one workload and show both the performance effects and the fragmentation
// statistics that explain them (entry sizes, termination causes, compacted
// fill ratio, allocation technique distribution).
//
// Run with:
//
//	go run ./examples/compaction [workload]
package main

import (
	"fmt"
	"log"
	"os"

	"uopsim"
)

func main() {
	workload := "bm_cc"
	if len(os.Args) > 1 {
		workload = os.Args[1]
	}
	const warmup, measure = 50_000, 200_000

	fmt.Printf("uop cache design points on %s (2K uops, Table I machine)\n\n", workload)
	fmt.Printf("%-9s %7s %8s %8s %8s | %7s %7s %7s %9s %s\n",
		"scheme", "UPC", "ratio", "decPow", "misplat", "<40B", "taken", "span", "compacted", "alloc R/P/F")

	for _, sc := range uopsim.Schemes(2) {
		sim, err := uopsim.NewSimulator(sc.Configure(2048), workload)
		if err != nil {
			log.Fatal(err)
		}
		m, err := sim.RunMeasured(warmup, measure)
		if err != nil {
			log.Fatal(err)
		}
		st := sim.UopCacheStats()
		r, p, f := st.AllocDistribution()
		fmt.Printf("%-9s %7.3f %8.3f %8.3f %8.1f | %6.1f%% %6.1f%% %6.1f%% %8.1f%% %3.0f/%.0f/%.0f\n",
			sc.Name, m.UPC, m.OCFetchRatio, m.DecoderPower, m.AvgMispLatency,
			100*(st.SizeHist.Fraction(0)+st.SizeHist.Fraction(1)),
			100*st.TakenTermFraction(), 100*st.SpanFraction(), 100*st.CompactedFraction(),
			100*r, 100*p, 100*f)
		sim.Release() // the next scheme's simulator reuses this core
	}

	fmt.Printf("\nThe paper's mechanism chain, visible above:\n")
	fmt.Printf("  1. entries are small relative to 64B lines (fragmentation: Figs 5-6),\n")
	fmt.Printf("  2. CLASP fuses sequential boundary-split entries (span > 0),\n")
	fmt.Printf("  3. compaction co-locates entries per line (compacted fills > 0),\n")
	fmt.Printf("  4. utilization turns into fetch ratio, UPC and decoder power.\n")
}
