package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"uopsim"
)

// TestRunSnapshotIdentityUnique collects the -metrics sink of every
// experiment and requires each run identity to name one design point: runs
// that share an identity must carry the same snapshot (experiments repeat
// points, so identities recur). RAC, PWAC and F-PWAC at 2048 uops run
// under 2 entries per line (Figs 16-19) and under 3 (Figs 20-21), so an
// identity without the bound would name two points; the runs are long
// enough that those two points' snapshots differ. The file -metrics writes
// holds each identity once, with its snapshot.
func TestRunSnapshotIdentityUnique(t *testing.T) {
	type identity struct {
		workload, scheme     string
		capacity, maxEntries int
	}
	seen := map[identity]uopsim.StatsSnapshot{}
	var runs []runSnapshot
	params := uopsim.ExperimentParams{
		WarmupInsts:  1000,
		MeasureInsts: 20000,
		Workloads:    []string{"bm_cc", "redis"},
		Engine:       uopsim.NewRunEngine(),
		SnapshotSink: func(r uopsim.ExperimentRun) {
			s := newRunSnapshot(r)
			runs = append(runs, s)
			id := identity{s.Workload, s.Scheme, s.Capacity, s.MaxEntries}
			if prev, ok := seen[id]; ok && !reflect.DeepEqual(prev, s.Snapshot) {
				t.Errorf("run identity %+v names two different snapshots", id)
			}
			seen[id] = s.Snapshot
		},
	}
	for _, e := range uopsim.Experiments() {
		if err := uopsim.RunExperiment(e.ID, io.Discard, params); err != nil {
			t.Fatal(err)
		}
	}
	both := 0
	for id, snap := range seen {
		if id.maxEntries != 2 {
			continue
		}
		id.maxEntries = 3
		if other, ok := seen[id]; ok {
			both++
			if reflect.DeepEqual(snap, other) {
				t.Errorf("%s/%s/%d: the same snapshot under 2 and 3 entries per line; runs too short to tell the points apart", id.workload, id.scheme, id.capacity)
			}
		}
	}
	if both == 0 {
		t.Fatal("no workload, scheme and capacity ran under both 2 and 3 entries per line")
	}
	t.Logf("%d runs, %d identities, %d run under both 2 and 3 entries per line", len(runs), len(seen), both)

	path := filepath.Join(t.TempDir(), "metrics.json")
	n, err := writeSnapshots(path, runs, params.Engine)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file metricsFile
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if n != len(file.Runs) || n != len(seen) {
		t.Fatalf("wrote %d runs (reported %d) for %d identities", len(file.Runs), n, len(seen))
	}
	written := map[identity]bool{}
	for _, r := range file.Runs {
		id := identity{r.Workload, r.Scheme, r.Capacity, r.MaxEntries}
		if written[id] {
			t.Errorf("the written file holds %+v twice", id)
		}
		written[id] = true
		want, _ := json.Marshal(seen[id])
		got, _ := json.Marshal(r.Snapshot)
		if !bytes.Equal(got, want) {
			t.Errorf("the written file's snapshot of %+v differs from the sink's", id)
		}
	}
}
