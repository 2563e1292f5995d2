package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"uopsim/internal/runcache"
	"uopsim/internal/surrogate"
)

// EstimateValidateOptions shapes the held-out accuracy harness behind
// `uopexp -estimate-validate`.
type EstimateValidateOptions struct {
	// Capacities spans the sweep grid together with every Schemes(2) design
	// point and every Params workload (default 1024, 2048, 4096).
	Capacities []int
	// HoldoutEvery holds out every n-th grid point as the test set; the
	// rest train the model (default 3 — a 2:1 train/test split that keeps
	// each workload's neighboring schemes and capacities in the training
	// set, which is the regime the fast tier actually operates in).
	HoldoutEvery int
	// MinConfidence is the serving threshold the confident-subset numbers
	// are computed against — the same default gate uopsimd applies
	// (default 0.7).
	MinConfidence float64
	// Surrogate tunes the model under test (zero = the daemon's defaults).
	Surrogate surrogate.Options
}

func (o EstimateValidateOptions) withDefaults() EstimateValidateOptions {
	if len(o.Capacities) == 0 {
		o.Capacities = []int{1024, 2048, 4096}
	}
	if o.HoldoutEvery < 2 {
		o.HoldoutEvery = 3
	}
	if o.MinConfidence <= 0 {
		o.MinConfidence = DefaultEstimateConfidence
	}
	return o
}

// DefaultEstimateConfidence is the serving threshold uopsimd applies when
// -estimate-confidence is not set: predictions at or above it are served
// from the fast tier, below it fall through to real simulation.
const DefaultEstimateConfidence = 0.7

// EstimateMetricError is one gated metric's held-out error, overall and
// over the confident subset (the predictions the daemon would actually
// have served).
type EstimateMetricError struct {
	Metric string `json:"metric"`
	// MAEPct / WorstPct are over every test point the model predicted.
	MAEPct   float64 `json:"mae_pct"`
	WorstPct float64 `json:"worst_pct"`
	// ConfidentMAEPct / ConfidentWorstPct restrict to predictions at or
	// above MinConfidence — the served subset CI gates on.
	ConfidentMAEPct   float64 `json:"confident_mae_pct"`
	ConfidentWorstPct float64 `json:"confident_worst_pct"`
}

// EstimateReport summarizes one estimate-validate run.
type EstimateReport struct {
	TrainPoints   int     `json:"train_points"`
	TestPoints    int     `json:"test_points"`
	Predicted     int     `json:"predicted"`
	Confident     int     `json:"confident"`
	CoveragePct   float64 `json:"coverage_pct"`
	ExactHits     int     `json:"exact_hits"` // leakage detector: must be 0
	MinConfidence float64 `json:"min_confidence"`
	// Metrics carries the gated metrics in a fixed order (upc,
	// oc_hit_rate, oc_fetch_ratio).
	Metrics []EstimateMetricError `json:"metrics"`
}

// estimateGatedMetrics are the metrics the validation harness scores and
// CI bounds — the same three the sampling harness gates, so the two error
// budgets are comparable.
var estimateGatedMetrics = []string{"upc", "oc_hit_rate", "oc_fetch_ratio"}

// EstimateValidate measures the surrogate's held-out accuracy: it builds
// the workloads × Schemes(2) × capacities grid, resolves every point
// (through p.Engine when attached, so a warm warehouse makes this cheap),
// trains a model strictly on the training split, and scores the held-out
// split. Holdout points are NEVER in the training set — an exact hit on one
// means leakage and is reported as such. Progress and the per-metric table
// render to w.
func EstimateValidate(w io.Writer, p Params, o EstimateValidateOptions) (*EstimateReport, error) {
	p = p.withDefaults()
	o = o.withDefaults()

	type gridPoint struct {
		pt   Point
		test bool
	}
	var grid []gridPoint
	i := 0
	for _, wl := range p.Workloads {
		for _, sc := range Schemes(2) {
			for _, capacity := range o.Capacities {
				grid = append(grid, gridPoint{
					pt:   Point{Workload: wl, Scheme: sc, Capacity: capacity},
					test: i%o.HoldoutEvery == o.HoldoutEvery-1,
				})
				i++
			}
		}
	}

	// Resolve the whole grid on the drivers' executor; results line up with
	// the grid, so everything downstream is deterministic regardless of
	// completion order.
	results, err := parallelMap(p, "estimate-validate", grid, func(g gridPoint) (PointResult, error) {
		res, err := point(p, g.pt.Workload, g.pt.Scheme.Configure(g.pt.Capacity))
		if err != nil {
			return res, fmt.Errorf("%s/%s/%d: %w", g.pt.Workload, g.pt.Scheme.Name, g.pt.Capacity, err)
		}
		return res, nil
	})
	if err != nil {
		// The harness names only the first failing grid point, which the
		// executor's summary wraps.
		return nil, fmt.Errorf("experiments: estimate-validate point %w", errors.Unwrap(err))
	}

	var train []surrogate.Point
	for idx, g := range grid {
		if g.test {
			continue
		}
		feat, err := FeaturesForPoint(g.pt, p)
		if err != nil {
			return nil, err
		}
		fp := fmt.Sprintf("ev-%s-%s-%d", g.pt.Workload, g.pt.Scheme.Name, g.pt.Capacity)
		train = append(train, surrogate.Point{
			Fingerprint: runcache.Fingerprint(fp),
			Features:    feat,
			Metrics:     DerivedMetricValues(results[idx]),
		})
	}
	model := surrogate.New(o.Surrogate)
	model.Fit(train)

	rep := &EstimateReport{
		TrainPoints:   len(train),
		MinConfidence: o.MinConfidence,
	}
	type errAcc struct {
		sum, worst         float64
		confSum, confWorst float64
		n, confN           int
	}
	accs := make(map[string]*errAcc, len(estimateGatedMetrics))
	for _, m := range estimateGatedMetrics {
		accs[m] = &errAcc{}
	}
	fmt.Fprintf(w, "%-10s %-9s %8s %6s %10s %10s %10s\n",
		"workload", "scheme", "capacity", "conf", "upc err", "hit err", "mix err")
	for idx, g := range grid {
		if !g.test {
			continue
		}
		rep.TestPoints++
		feat, err := FeaturesForPoint(g.pt, p)
		if err != nil {
			return nil, err
		}
		pred, ok := model.Predict(feat)
		if !ok {
			fmt.Fprintf(w, "%-10s %-9s %8d %6s %10s %10s %10s\n",
				g.pt.Workload, g.pt.Scheme.Name, g.pt.Capacity, "-", "-", "-", "-")
			continue
		}
		if pred.Exact {
			rep.ExactHits++
		}
		rep.Predicted++
		confident := pred.Confidence >= o.MinConfidence
		if confident {
			rep.Confident++
		}
		truth := DerivedMetricValues(results[idx])
		var line [3]float64
		for mi, m := range estimateGatedMetrics {
			e := relErrPctOf(pred.Metrics[m], truth[m])
			line[mi] = e
			a := accs[m]
			a.sum += e
			a.n++
			if e > a.worst {
				a.worst = e
			}
			if confident {
				a.confSum += e
				a.confN++
				if e > a.confWorst {
					a.confWorst = e
				}
			}
		}
		fmt.Fprintf(w, "%-10s %-9s %8d %6.2f %9.2f%% %9.2f%% %9.2f%%\n",
			g.pt.Workload, g.pt.Scheme.Name, g.pt.Capacity, pred.Confidence, line[0], line[1], line[2])
	}
	if rep.TestPoints > 0 {
		rep.CoveragePct = float64(rep.Confident) / float64(rep.TestPoints) * 100
	}
	for _, m := range estimateGatedMetrics {
		a := accs[m]
		me := EstimateMetricError{Metric: m, WorstPct: a.worst, ConfidentWorstPct: a.confWorst}
		if a.n > 0 {
			me.MAEPct = a.sum / float64(a.n)
		}
		if a.confN > 0 {
			me.ConfidentMAEPct = a.confSum / float64(a.confN)
		}
		rep.Metrics = append(rep.Metrics, me)
	}
	sort.Slice(rep.Metrics, func(i, j int) bool { return rep.Metrics[i].Metric < rep.Metrics[j].Metric })
	fmt.Fprintf(w, "train=%d test=%d predicted=%d confident=%d coverage=%.1f%% exact_leaks=%d\n",
		rep.TrainPoints, rep.TestPoints, rep.Predicted, rep.Confident, rep.CoveragePct, rep.ExactHits)
	for _, me := range rep.Metrics {
		fmt.Fprintf(w, "metric %s mae=%.2f%% worst=%.2f%% confident_mae=%.2f%% confident_worst=%.2f%%\n",
			me.Metric, me.MAEPct, me.WorstPct, me.ConfidentMAEPct, me.ConfidentWorstPct)
	}
	return rep, nil
}

func relErrPctOf(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return math.Abs(got-want) / math.Abs(want) * 100
}
