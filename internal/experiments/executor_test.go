package experiments

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"uopsim/internal/workload"
)

// TestParallelMapBoundsInFlight: however many items there are, no more
// than Params.Parallel calls of fn run at once.
func TestParallelMapBoundsInFlight(t *testing.T) {
	const par = 3
	var inFlight, peak atomic.Int32
	items := make([]int, 40)
	_, err := parallelMap(Params{Parallel: par}, "bound", items, func(int) (int, error) {
		n := inFlight.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		inFlight.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > par || got < 1 {
		t.Fatalf("peak in-flight calls = %d, want 1..%d", got, par)
	}
}

// TestParallelMapAlignsResults: results line up with the inputs whatever
// order the items complete in.
func TestParallelMapAlignsResults(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	out, err := parallelMap(Params{Parallel: 8}, "align", items, func(i int) (string, error) {
		time.Sleep(time.Duration((i*7)%5) * 100 * time.Microsecond) // scramble completion order
		return fmt.Sprint(i * i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(items) {
		t.Fatalf("got %d results for %d items", len(out), len(items))
	}
	for i, got := range out {
		if want := fmt.Sprint(i * i); got != want {
			t.Errorf("out[%d] = %q, want %q", i, got, want)
		}
	}
}

// TestParallelMapSalvagesFailures: a failed item leaves a zero value at its
// index, the others are kept, and the summary counts the failures and
// wraps the first in item order.
func TestParallelMapSalvagesFailures(t *testing.T) {
	items := []int{1, 2, 3, 4, 5}
	boom := errors.New("boom 3")
	out, err := parallelMap(Params{Parallel: 2}, "batch", items, func(i int) (int, error) {
		if i == 3 {
			return 99, boom
		}
		return 10 * i, nil
	})
	if want := "batch: 1 of 5 jobs failed (first: boom 3)"; err == nil || err.Error() != want {
		t.Fatalf("error = %v, want %q", err, want)
	}
	if !errors.Is(err, boom) {
		t.Error("summary does not wrap the failure")
	}
	want := []int{10, 20, 0, 40, 50}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out = %v, want %v", out, want)
			break
		}
	}

	// With several failures the first in item order is the one reported,
	// even when a later item fails first.
	_, err = parallelMap(Params{Parallel: 4}, "batch", items, func(i int) (int, error) {
		if i == 2 {
			time.Sleep(2 * time.Millisecond)
		}
		if i%2 == 0 {
			return 0, fmt.Errorf("item %d", i)
		}
		return i, nil
	})
	if want := "batch: 2 of 5 jobs failed (first: item 2)"; err == nil || err.Error() != want {
		t.Fatalf("error = %v, want %q", err, want)
	}
}

// TestDriverErrorsNameThePoint: the ablation, SMT and estimate-validate
// drivers, given one unknown workload, report the same text with or
// without an engine and at any parallelism.
func TestDriverErrorsNameThePoint(t *testing.T) {
	const wl = "no_such_wl"
	_, lookupErr := workload.Lookup(wl)
	if lookupErr == nil {
		t.Fatal("workload lookup accepted an unknown name")
	}
	unknown := lookupErr.Error()
	want := map[string]string{
		"ablations":         "ablations: 11 of 11 jobs failed (first: no_such_wl/reference (CLASP+F-PWAC): " + unknown + ")",
		"smt":               "smt: 3 of 3 jobs failed (first: no_such_wl/RAC: " + unknown + ")",
		"estimate-validate": "experiments: estimate-validate point no_such_wl/baseline/1024: " + unknown,
	}
	for _, withEngine := range []bool{false, true} {
		for _, par := range []int{1, 0} {
			p := Params{WarmupInsts: 1_000, MeasureInsts: 2_000, Workloads: []string{wl}, Parallel: par}
			if withEngine {
				p.Engine, _ = NewEngine("", 0)
			}
			_, evErr := EstimateValidate(io.Discard, p, EstimateValidateOptions{})
			for name, err := range map[string]error{
				"ablations":         Ablations(io.Discard, p),
				"smt":               SMT(io.Discard, p),
				"estimate-validate": evErr,
			} {
				if err == nil || err.Error() != want[name] {
					t.Errorf("engine=%v parallel=%d %s: error = %v, want %q", withEngine, par, name, err, want[name])
				}
			}
		}
	}
}
