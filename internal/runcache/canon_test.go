package runcache

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func mustKey(t *testing.T, parts ...any) Fingerprint {
	t.Helper()
	fp, err := Key(parts...)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func TestKeyDeterministic(t *testing.T) {
	type cfg struct {
		A int
		B float64
		C string
	}
	a := mustKey(t, cfg{1, 2.5, "x"}, uint64(100))
	b := mustKey(t, cfg{1, 2.5, "x"}, uint64(100))
	if a != b {
		t.Errorf("same inputs produced different fingerprints: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Errorf("fingerprint should be hex SHA-256 (64 chars), got %d", len(a))
	}
	if c := mustKey(t, cfg{2, 2.5, "x"}, uint64(100)); c == a {
		t.Error("changed field did not change the fingerprint")
	}
	if c := mustKey(t, cfg{1, 2.5, "x"}, uint64(101)); c == a {
		t.Error("changed part did not change the fingerprint")
	}
}

// TestKeyPartSeparation guards against concatenation aliasing: moving bytes
// between adjacent parts, or between adjacent string fields, must change the
// fingerprint.
func TestKeyPartSeparation(t *testing.T) {
	if mustKey(t, "ab", "c") == mustKey(t, "a", "bc") {
		t.Error(`Key("ab","c") aliases Key("a","bc")`)
	}
	if mustKey(t, "a", "b") == mustKey(t, "b", "a") {
		t.Error("part order does not affect the fingerprint")
	}
	type two struct{ A, B string }
	if mustKey(t, two{"ab", "c"}) == mustKey(t, two{"a", "bc"}) {
		t.Error("string field boundaries alias")
	}
}

// TestKeyFloatExactness: the hex-float encoding must distinguish every bit
// pattern, including adjacent representable values and signed zero —
// configs that simulate differently must never share a fingerprint.
func TestKeyFloatExactness(t *testing.T) {
	x := 0.1
	y := math.Nextafter(x, 1)
	if mustKey(t, x) == mustKey(t, y) {
		t.Error("adjacent float64 values alias")
	}
	if mustKey(t, 0.0) == mustKey(t, math.Copysign(0, -1)) {
		t.Error("+0 and -0 alias")
	}
}

// TestKeyRejectsUnsupportedKinds is the exhaustiveness guard: a config
// struct that grows a field whose canonical encoding would be ambiguous
// (map iteration order, function identity, dynamic interface content) must
// fail loudly, naming the offending field.
func TestKeyRejectsUnsupportedKinds(t *testing.T) {
	type bad struct {
		OK int
		M  map[string]int
	}
	_, err := Key(bad{M: map[string]int{}})
	if err == nil {
		t.Fatal("map field must be rejected")
	}
	if !strings.Contains(err.Error(), "part[0].M") {
		t.Errorf("error should name the offending field path, got: %v", err)
	}
	type withFn struct{ F func() }
	if _, err := Key(withFn{}); err == nil || !strings.Contains(err.Error(), ".F") {
		t.Errorf("func field must be rejected by name, got: %v", err)
	}
	type withCh struct{ C chan int }
	if _, err := Key(withCh{}); err == nil {
		t.Error("chan field must be rejected")
	}
}

// TestKeyErrorPath pins the rejection message: the full field chain down
// to the offending value, through struct fields, slice indices and
// pointers, exactly as a config author reads it.
func TestKeyErrorPath(t *testing.T) {
	type inner struct{ M *map[string]int } // nil encodes; only Y[2] holds a map
	type mid struct{ Y []inner }
	type outer struct {
		A int
		X *mid
	}
	m := map[string]int{}
	bad := outer{X: &mid{Y: []inner{{}, {}, {M: &m}}}}
	_, err := Key("ok", bad)
	const want = "runcache: cannot fingerprint part[1].X.Y[2].M (kind map): add explicit handling or remove the field"
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	_, err = Key([]any{1})
	const wantIface = "runcache: cannot fingerprint part[0][0] (kind interface): add explicit handling or remove the field"
	if err == nil || err.Error() != wantIface {
		t.Fatalf("error %v, want %q", err, wantIface)
	}
	// A failed Key leaves the pooled buffer fit for the next call.
	if mustKey(t, "anything") != mustKey(t, "anything") {
		t.Fatal("fingerprint changed after a rejected Key")
	}
}

// TestKeyConcurrent: Key shares pooled buffers across goroutines, so
// concurrent calls over different parts must each get their own digest.
func TestKeyConcurrent(t *testing.T) {
	want := make([]Fingerprint, 16)
	for i := range want {
		want[i] = mustKey(t, i, strings.Repeat("x", i*100))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				i := (g + rep) % len(want)
				if fp, err := Key(i, strings.Repeat("x", i*100)); err != nil || fp != want[i] {
					t.Errorf("part set %d: got %s (%v), want %s", i, fp, err, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestKeyCoversUnexportedFields: the encoder reads values through
// kind-specific accessors, so unexported configuration state is part of the
// fingerprint too.
func TestKeyCoversUnexportedFields(t *testing.T) {
	type hidden struct {
		Pub int
		sec int
	}
	if mustKey(t, hidden{1, 1}) == mustKey(t, hidden{1, 2}) {
		t.Error("unexported field change did not change the fingerprint")
	}
}

func TestKeyPointersAndSlices(t *testing.T) {
	v := 7
	if mustKey(t, &v) != mustKey(t, 7) {
		t.Error("pointer should fingerprint as its pointee")
	}
	if mustKey(t, (*int)(nil)) == mustKey(t, 0) {
		t.Error("nil pointer aliases zero value")
	}
	if mustKey(t, []int{1, 2}) == mustKey(t, []int{1, 2, 0}) {
		t.Error("slice length not covered")
	}
	if mustKey(t, []int(nil)) == mustKey(t, []int{}) {
		t.Error("nil and empty slice alias")
	}
}

func TestFingerprintShort(t *testing.T) {
	fp := mustKey(t, "anything")
	if got := fp.Short(); len(got) != 12 || !strings.HasPrefix(string(fp), got) {
		t.Errorf("Short() = %q, want 12-char prefix of %q", got, fp)
	}
	if short := Fingerprint("abc"); short.Short() != "abc" {
		t.Errorf("Short on short fingerprint = %q", short.Short())
	}
}
