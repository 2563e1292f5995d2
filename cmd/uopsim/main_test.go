package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"uopsim"
)

// TestMain runs the command itself when the test binary is started with
// UOPSIM_RUN_MAIN set, so a test can run it as a subprocess.
func TestMain(m *testing.M) {
	if os.Getenv("UOPSIM_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestMetricsDumpIsMeasuredWindow runs the command with -json, -metrics and
// -prom and requires both dumps to count the instructions the printed
// metrics do: the measured window, without the warmup.
func TestMetricsDumpIsMeasuredWindow(t *testing.T) {
	dir := t.TempDir()
	jsonPath, promPath := filepath.Join(dir, "m.json"), filepath.Join(dir, "m.prom")
	cmd := exec.Command(os.Args[0], "-workload", "bm_cc", "-warmup", "3000", "-insts", "10000",
		"-json", "-metrics", jsonPath, "-prom", promPath)
	cmd.Env = append(os.Environ(), "UOPSIM_RUN_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("uopsim: %v", err)
	}
	var printed struct{ Metrics uopsim.Metrics }
	if err := json.Unmarshal(out, &printed); err != nil {
		t.Fatalf("decoding the printed metrics: %v\n%s", err, out)
	}
	if printed.Metrics.Insts < 10_000 || printed.Metrics.Insts > 11_000 {
		t.Fatalf("printed insts = %d, want the ~10000 measured", printed.Metrics.Insts)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap uopsim.StatsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter("dispatch.insts"); got != printed.Metrics.Insts {
		t.Errorf("-metrics dispatch.insts = %d, printed insts = %d", got, printed.Metrics.Insts)
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	want := "uopsim_dispatch_insts " + strconv.FormatUint(printed.Metrics.Insts, 10) + "\n"
	if !strings.Contains(string(prom), want) {
		t.Errorf("-prom lacks %q", want)
	}
}
