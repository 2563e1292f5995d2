package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"uopsim/internal/pipeline"
	"uopsim/internal/warehouse"
	"uopsim/internal/workload"
)

// engineParams is tinyParams with a fresh in-process engine attached.
func engineParams(t *testing.T) Params {
	t.Helper()
	p := tinyParams()
	eng, err := NewEngine("", 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Engine = eng
	return p
}

// mutateLeaf nudges one settable leaf field to a different valid value of
// its kind, returning false for kinds the walker should have descended into
// instead.
func mutateLeaf(f reflect.Value) bool {
	switch f.Kind() {
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		f.SetFloat(f.Float() + 0.125)
	case reflect.String:
		f.SetString(f.String() + "~")
	default:
		return false
	}
	return true
}

// leafPaths walks a struct value and returns the dotted path of every leaf
// field, failing on any field the walker cannot mutate — that is the signal
// that a config grew state this test (and the canonical encoder) must learn
// about explicitly.
func leafPaths(t *testing.T, v reflect.Value, prefix string, out *[]string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			ft := v.Type().Field(i)
			leafPaths(t, v.Field(i), prefix+"."+ft.Name, out)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			leafPaths(t, v.Index(i), fmt.Sprintf("%s[%d]", prefix, i), out)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			leafPaths(t, v.Elem(), prefix, out)
		}
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.String:
		if !v.CanSet() {
			t.Fatalf("field %s is not settable (unexported?): extend this test to cover it", prefix)
		}
		*out = append(*out, prefix)
	default:
		t.Fatalf("field %s has kind %s the fingerprint test does not cover: extend mutateLeaf/leafPaths", prefix, v.Kind())
	}
}

// setByPath mutates the leaf at a dotted path inside an addressable struct.
func setByPath(t *testing.T, root reflect.Value, path string) {
	t.Helper()
	v := root
	for _, part := range strings.Split(strings.TrimPrefix(path, "."), ".") {
		idx := -1
		if i := strings.IndexByte(part, '['); i >= 0 {
			fmt.Sscanf(part[i:], "[%d]", &idx)
			part = part[:i]
		}
		v = v.FieldByName(part)
		if idx >= 0 {
			v = v.Index(idx)
		}
	}
	if !mutateLeaf(v) {
		t.Fatalf("could not mutate %s (kind %s)", path, v.Kind())
	}
}

// TestFingerprintCoversEveryConfigField is the exhaustiveness proof the
// run cache's correctness rests on: mutating ANY leaf field of
// pipeline.Config must change the design-point fingerprint. When
// pipeline.Config (or a nested component config) grows a field, this test
// covers it automatically — and fails loudly, via leafPaths, if the field
// has a kind the canonical encoder cannot fingerprint.
func TestFingerprintCoversEveryConfigField(t *testing.T) {
	p := Params{WarmupInsts: 1000, MeasureInsts: 2000}
	prof, err := workload.ByName("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	base := pipeline.DefaultConfig()
	baseFP, err := pointFingerprint(p, prof, base)
	if err != nil {
		t.Fatal(err)
	}

	var paths []string
	leafPaths(t, reflect.ValueOf(&base).Elem(), "", &paths)
	if len(paths) < 20 {
		t.Fatalf("only %d config leaves found — walker broken?", len(paths))
	}
	for _, path := range paths {
		cfg := pipeline.DefaultConfig()
		setByPath(t, reflect.ValueOf(&cfg).Elem(), path)
		fp, err := pointFingerprint(p, prof, cfg)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if fp == baseFP {
			t.Errorf("mutating Config%s did not change the fingerprint", path)
		}
	}
	t.Logf("fingerprint sensitivity verified over %d config leaves", len(paths))
}

// TestFingerprintCoversEveryProfileField extends the same proof to the
// workload profile: any synthesis knob (seed, footprint, branch behaviour,
// data regions) must land in the fingerprint.
func TestFingerprintCoversEveryProfileField(t *testing.T) {
	p := Params{WarmupInsts: 1000, MeasureInsts: 2000}
	orig, err := workload.ByName("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	baseFP, err := pointFingerprint(p, orig, cfg)
	if err != nil {
		t.Fatal(err)
	}

	base := *orig
	var paths []string
	leafPaths(t, reflect.ValueOf(&base).Elem(), "", &paths)
	if len(paths) < 20 {
		t.Fatalf("only %d profile leaves found — walker broken?", len(paths))
	}
	for _, path := range paths {
		prof := *orig
		setByPath(t, reflect.ValueOf(&prof).Elem(), path)
		fp, err := pointFingerprint(p, &prof, cfg)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if fp == baseFP {
			t.Errorf("mutating Profile%s did not change the fingerprint", path)
		}
	}
}

// TestFingerprintCoversRunLengthsAndVersions: the remaining fingerprint
// inputs — run lengths and the version strings' presence — must all be
// discriminating.
func TestFingerprintCoversRunLengthsAndVersions(t *testing.T) {
	prof, err := workload.ByName("bm_cc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	base := Params{WarmupInsts: 1000, MeasureInsts: 2000}
	baseFP, _ := pointFingerprint(base, prof, cfg)
	if fp, _ := pointFingerprint(Params{WarmupInsts: 1001, MeasureInsts: 2000}, prof, cfg); fp == baseFP {
		t.Error("warmup length not covered")
	}
	if fp, _ := pointFingerprint(Params{WarmupInsts: 1000, MeasureInsts: 2001}, prof, cfg); fp == baseFP {
		t.Error("measure length not covered")
	}
	// SMT pairs live in a disjoint key space even when thread A's inputs
	// match a single-thread point.
	smtP := Params{WarmupInsts: 2000, MeasureInsts: 4000} // halved = 1000/2000
	if fp, _ := smtFingerprint(smtP, prof, prof, cfg); fp == baseFP {
		t.Error("SMT fingerprint aliases the single-thread key space")
	}
}

// TestPointEngineDedupe: the same design point submitted twice simulates
// once; the duplicate gets the identical payload.
func TestPointEngineDedupe(t *testing.T) {
	p := engineParams(t)
	sc := Schemes(2)[0]
	a, err := runOne(p, "bm_ds", sc, 2048)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOne(p, "bm_ds", sc, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("deduped point returned a different payload")
	}
	st := p.Engine.Stats()
	if st.Submitted != 2 || st.Unique != 1 || st.Simulated != 1 || st.MemoHits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCrossDriverLabelDedupe: the payload carries no scheme label, so the
// same machine configuration reached under different labels — a sweep's
// F-PWAC point and the ablation driver's "reference" variant — is one
// fingerprint, simulated once, with the sweep's label re-attached.
func TestCrossDriverLabelDedupe(t *testing.T) {
	p := engineParams(t)
	fpwac := Schemes(2)[4]
	a, err := runOne(p, "bm_ds", fpwac, 2048)
	if err != nil {
		t.Fatal(err)
	}
	b, err := point(p, "bm_ds", fpwac.Configure(2048)) // the ablation reference
	if err != nil {
		t.Fatal(err)
	}
	st := p.Engine.Stats()
	if st.Unique != 1 || st.Simulated != 1 {
		t.Errorf("same config under two labels was not deduped: %+v", st)
	}
	if a.Scheme != "F-PWAC" {
		t.Errorf("label not preserved: %q", a.Scheme)
	}
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Error("shared payload differs between labels")
	}
	// Schemes(2) and Schemes(3) configure identical machines for the
	// non-compacting schemes; their points must alias too.
	if _, err := runOne(p, "bm_ds", Schemes(3)[1], 2048); err != nil {
		t.Fatal(err)
	}
	if _, err := runOne(p, "bm_ds", Schemes(2)[1], 2048); err != nil {
		t.Fatal(err)
	}
	if st := p.Engine.Stats(); st.Unique != 2 {
		t.Errorf("CLASP from Schemes(2) vs Schemes(3) did not dedupe: %+v", st)
	}
}

// TestEngineOutputBitIdentical: a driver's rendered output must not depend
// on whether points were simulated directly, deduped in-process, or served
// from a warm disk cache.
func TestEngineOutputBitIdentical(t *testing.T) {
	render := func(p Params) string {
		t.Helper()
		var buf bytes.Buffer
		d, _ := ByID("fig16")
		if err := d(&buf, p); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	direct := render(tinyParams())

	withEngine := engineParams(t)
	if got := render(withEngine); got != direct {
		t.Errorf("engine-on output differs from direct:\n%s\n--- vs ---\n%s", got, direct)
	}
	// Second render on the same engine: every point is a memo hit.
	before := withEngine.Engine.Stats()
	if got := render(withEngine); got != direct {
		t.Error("warm-engine output differs")
	}
	after := withEngine.Engine.Stats()
	if after.Simulated != before.Simulated {
		t.Errorf("warm render simulated %d new points", after.Simulated-before.Simulated)
	}

	// Disk: cold pass writes records, warm pass (fresh engine, reopened
	// warehouse) must serve every point from disk and still render
	// identically. Each store is closed before the next opens the dir.
	dir := t.TempDir()
	open := func(verifyEvery int) (Params, *warehouse.Store) {
		t.Helper()
		eng, ws, err := NewWarehouseEngine(dir, warehouse.Options{}, verifyEvery)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ws.Close() })
		p := tinyParams()
		p.Engine = eng
		return p, ws
	}
	cold, ws := open(0)
	if got := render(cold); got != direct {
		t.Error("disk-cold output differs")
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	warm, ws := open(0)
	if got := render(warm); got != direct {
		t.Error("disk-warm output differs")
	}
	st := warm.Engine.Stats()
	if st.Simulated != 0 || st.DiskHits != st.Unique {
		t.Errorf("warm disk pass should simulate nothing: %+v", st)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	// And a verifying pass re-simulates yet still matches.
	verify, _ := open(1)
	if got := render(verify); got != direct {
		t.Error("cache-verify output differs")
	}
	if st := verify.Engine.Stats(); st.Verified == 0 || st.VerifyFailed != 0 {
		t.Errorf("verify pass stats = %+v", st)
	}
}

// TestRunPointsAlignedSalvage: a failing point must not poison the batch —
// completed runs come back at their indices, the failure leaves a zero Run,
// and the error names the exact design point.
func TestRunPointsAlignedSalvage(t *testing.T) {
	p := tinyParams()
	base := Schemes(2)[0]
	pts := []Point{
		{Workload: "bm_ds", Scheme: base, Capacity: 2048},
		{Workload: "not_a_workload", Scheme: base, Capacity: 2048},
		{Workload: "redis", Scheme: base, Capacity: 2048},
	}
	runs, err := RunPoints(p, pts)
	if err == nil {
		t.Fatal("batch with a bad point must error")
	}
	if !strings.Contains(err.Error(), "not_a_workload/baseline/2048") {
		t.Errorf("error should name the failed design point, got: %v", err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d, want 3 (aligned)", len(runs))
	}
	if runs[0].Workload != "bm_ds" || runs[0].Metrics.Insts == 0 {
		t.Errorf("surviving run 0 = %+v", runs[0])
	}
	if runs[1].Metrics.Insts != 0 || runs[1].Workload != "" {
		t.Errorf("failed point should leave a zero Run, got %+v", runs[1])
	}
	if runs[2].Workload != "redis" || runs[2].Metrics.Insts == 0 {
		t.Errorf("surviving run 2 = %+v", runs[2])
	}
}

// TestRunPointsThroughEngineSalvage: same salvage semantics with the engine
// attached, and the duplicate of a failed point reuses the memoized error
// without re-simulating.
func TestRunPointsThroughEngineSalvage(t *testing.T) {
	p := engineParams(t)
	base := Schemes(2)[0]
	pts := []Point{
		{Workload: "bm_ds", Scheme: base, Capacity: 2048},
		{Workload: "not_a_workload", Scheme: base, Capacity: 2048},
		{Workload: "bm_ds", Scheme: base, Capacity: 2048},
	}
	runs, err := RunPoints(p, pts)
	if err == nil {
		t.Fatal("batch with a bad point must error")
	}
	if runs[0].Metrics.Insts == 0 || runs[2].Metrics.Insts == 0 {
		t.Error("completed points were not salvaged")
	}
	if !reflect.DeepEqual(runs[0], runs[2]) {
		t.Error("duplicate points disagree")
	}
	st := p.Engine.Stats()
	if st.Simulated != 1 {
		t.Errorf("expected exactly 1 simulation (bad workload fails before compute), got %+v", st)
	}
}

// TestValidatePoint covers the semantic half of blob corruption tolerance.
func TestValidatePoint(t *testing.T) {
	p := tinyParams()
	good, err := simulatePoint(p, "bm_ds", Schemes(2)[0].Configure(2048))
	if err != nil {
		t.Fatal(err)
	}
	if err := validatePoint(good); err != nil {
		t.Errorf("freshly simulated point must validate: %v", err)
	}
	bad := good
	bad.Metrics.Cycles = 0
	if validatePoint(bad) == nil {
		t.Error("zero-cycle point must be rejected")
	}
	bad = good
	bad.Snapshot.Samples = nil
	if validatePoint(bad) == nil {
		t.Error("empty-snapshot point must be rejected")
	}
	shuffled := good
	shuffled.Snapshot.Samples = append(shuffled.Snapshot.Samples[:0:0], shuffled.Snapshot.Samples...)
	shuffled.Snapshot.Samples[0], shuffled.Snapshot.Samples[1] = shuffled.Snapshot.Samples[1], shuffled.Snapshot.Samples[0]
	if validatePoint(shuffled) == nil {
		t.Error("out-of-order snapshot must be rejected")
	}
}

// TestWarehouseQuarantinesInvalidBlob runs the corrupt-blob path end to
// end on a real warehouse: a stored record that decodes but fails
// validatePoint is counted, tombstoned, and re-simulated once, and a fresh
// engine on the reopened store is served the repaired record from disk.
func TestWarehouseQuarantinesInvalidBlob(t *testing.T) {
	p := tinyParams()
	cfg := Schemes(2)[0].Configure(2048)
	prof, err := workload.ByName("bm_ds")
	if err != nil {
		t.Fatal(err)
	}
	fp, err := pointFingerprint(p, prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := simulatePoint(p, "bm_ds", cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	eng, ws, err := NewWarehouseEngine(dir, warehouse.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	// Decodes as a PointResult, but has no measured cycles.
	invalid, err := json.Marshal(PointResult{Suite: want.Suite, Snapshot: want.Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Put(fp, nil, invalid); err != nil {
		t.Fatal(err)
	}
	p.Engine = eng
	got, err := point(p, "bm_ds", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("re-simulated point differs from a direct simulation")
	}
	if st := eng.Stats(); st.BadBlobs != 1 || st.Simulated != 1 || st.DiskWrites != 1 {
		t.Errorf("engine stats = %+v, want one bad blob, one simulation, one write", st)
	}
	if st := ws.Stats(); st.Quarantined != 1 {
		t.Errorf("warehouse quarantined %d records, want 1", st.Quarantined)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, ws2, err := NewWarehouseEngine(dir, warehouse.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	p.Engine = eng2
	if got, err := point(p, "bm_ds", cfg); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store served %v, %v", got.Metrics, err)
	}
	if st := eng2.Stats(); st.DiskHits != 1 || st.Simulated != 0 || st.BadBlobs != 0 {
		t.Errorf("reopened engine stats = %+v, want one clean disk hit", st)
	}
}

// TestNewEngineRejectsDir: persistence goes through the warehouse only.
func TestNewEngineRejectsDir(t *testing.T) {
	if _, err := NewEngine(t.TempDir(), 0); err == nil || !strings.Contains(err.Error(), "NewWarehouseEngine") {
		t.Fatalf("NewEngine(dir) = %v, want an error naming NewWarehouseEngine", err)
	}
}
