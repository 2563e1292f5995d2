package experiments

import (
	"fmt"
	"io"

	"uopsim/internal/pipeline"
	"uopsim/internal/stats"
)

// Ablations quantifies the design choices the paper fixes without sweeping:
// loop cache presence, the uop-cache-to-decoder switch penalty, the
// prediction window's not-taken branch budget, the uop cache read latency,
// and the CLASP span bound (2 vs 3 I-cache lines). Each variant runs the
// full machine with the best scheme (CLASP + F-PWAC) and reports UPC and
// fetch-ratio deltas against that reference.
func Ablations(w io.Writer, p Params) error {
	p = p.withDefaults()

	ref := Schemes(2)[4] // F-PWAC
	type variant struct {
		name string
		mod  func(*pipeline.Config)
	}
	variants := []variant{
		{"reference (CLASP+F-PWAC)", func(c *pipeline.Config) {}},
		{"no loop cache", func(c *pipeline.Config) { c.Loop.Enabled = false }},
		{"no OC->IC switch penalty", func(c *pipeline.Config) { c.OCSwitchPenalty = 0 }},
		{"OC->IC switch penalty 3", func(c *pipeline.Config) { c.OCSwitchPenalty = 3 }},
		{"PW not-taken budget 1", func(c *pipeline.Config) { c.Fetch.MaxNotTaken = 1 }},
		{"PW not-taken budget 4", func(c *pipeline.Config) { c.Fetch.MaxNotTaken = 4 }},
		{"OC read latency 1", func(c *pipeline.Config) { c.OCLatency = 1 }},
		{"OC read latency 4", func(c *pipeline.Config) { c.OCLatency = 4 }},
		{"CLASP span 3 lines", func(c *pipeline.Config) {
			c.Limits.MaxICLines = 3
			c.UopCache.MaxICLines = 3
		}},
		{"decode width 2", func(c *pipeline.Config) { c.DecodeWidth = 2 }},
		{"shallow BPU runahead (4 PWs)", func(c *pipeline.Config) { c.PWQueueSize = 4 }},
	}

	// Variant-major: variant vi's result for workload wi sits at
	// vi*len(p.Workloads)+wi.
	type work struct {
		v  variant
		wl string
	}
	var works []work
	for _, v := range variants {
		for _, name := range p.Workloads {
			works = append(works, work{v, name})
		}
	}
	ms, err := parallelMap(p, "ablations", works, func(wk work) (pipeline.Metrics, error) {
		cfg := ref.Configure(2048)
		wk.v.mod(&cfg)
		pr, err := point(p, wk.wl, cfg)
		if err != nil {
			return pipeline.Metrics{}, fmt.Errorf("%s/%s: %w", wk.wl, wk.v.name, err)
		}
		return pr.Metrics, nil
	})
	if err != nil {
		return err
	}

	t := stats.NewTable("Ablations: design-choice sensitivity (geomean over workloads, deltas vs CLASP+F-PWAC reference)",
		"variant", "UPC Δ", "OC ratio Δ", "mispLat Δ", "decPow Δ")
	n := len(p.Workloads)
	for vi := 1; vi < len(variants); vi++ {
		var upc, ratio, ml, dp []float64
		for wi := range n {
			refM, m := ms[wi], ms[vi*n+wi]
			upc = append(upc, m.UPC/refM.UPC)
			ratio = append(ratio, safeRatio(m.OCFetchRatio, refM.OCFetchRatio))
			ml = append(ml, safeRatio(m.AvgMispLatency, refM.AvgMispLatency))
			dp = append(dp, safeRatio(m.DecoderPower, refM.DecoderPower))
		}
		t.AddRow(variants[vi].name,
			fmt.Sprintf("%+.2f%%", (stats.GeoMean(upc)-1)*100),
			fmt.Sprintf("%+.2f%%", (stats.GeoMean(ratio)-1)*100),
			fmt.Sprintf("%+.2f%%", (stats.GeoMean(ml)-1)*100),
			fmt.Sprintf("%+.2f%%", (stats.GeoMean(dp)-1)*100))
	}
	_, err = fmt.Fprintln(w, t)
	return err
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}
