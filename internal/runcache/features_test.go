package runcache

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// refFeatures is the plain recursive flattening AppendFeatures replaces:
// one string concatenation per key and one Format call per value.
func refFeatures(feat Features, key string, v reflect.Value) Features {
	switch v.Kind() {
	case reflect.Invalid:
		return feat
	case reflect.Bool:
		return append(feat, KV{key, strconv.FormatBool(v.Bool())})
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return append(feat, KV{key, strconv.FormatInt(v.Int(), 10)})
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return append(feat, KV{key, strconv.FormatUint(v.Uint(), 10)})
	case reflect.Float32, reflect.Float64:
		return append(feat, KV{key, strconv.FormatFloat(v.Float(), 'g', -1, 64)})
	case reflect.String:
		return append(feat, KV{key, v.String()})
	case reflect.Pointer:
		if v.IsNil() {
			return feat
		}
		return refFeatures(feat, key, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			feat = refFeatures(feat, key+"."+strings.ToLower(v.Type().Field(i).Name), v.Field(i))
		}
		return feat
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			feat = refFeatures(feat, key+"."+strconv.Itoa(i), v.Index(i))
		}
		return feat
	}
	panic("unsupported kind " + v.Kind().String())
}

// TestAppendFeaturesMatchesReference: the one-buffer walk produces the
// plain flattening's pairs for small values, for values whose keys or
// encoding outgrow the walk's stack buffers, after a non-empty head with
// and without spare capacity, and with non-ASCII field names.
func TestAppendFeaturesMatchesReference(t *testing.T) {
	type leaf struct {
		Ä     int8
		Ratio float32
		U     uintptr
	}
	type deep struct {
		AVeryLongFieldNameThatMakesTheDottedKeyOutgrowItsStackBufferByItselfAlone string
		Next                                                                      *deep
	}
	long := make([]string, 300)
	for i := range long {
		long[i] = strings.Repeat("v", i%40)
	}
	d := &deep{AVeryLongFieldNameThatMakesTheDottedKeyOutgrowItsStackBufferByItselfAlone: "x"}
	for i := 0; i < 12; i++ {
		d = &deep{AVeryLongFieldNameThatMakesTheDottedKeyOutgrowItsStackBufferByItselfAlone: strconv.Itoa(i), Next: d}
	}
	values := []any{
		nil,
		7,
		struct{}{},
		leaf{Ä: -3, Ratio: 0.1, U: 9},
		[2]leaf{{Ratio: float32(math.Inf(-1))}, {Ratio: float32(math.NaN())}},
		struct {
			Long   []string
			Nil    []int
			Leaves []leaf
		}{Long: long, Leaves: make([]leaf, 70)},
		d,
	}
	heads := []Features{nil, {{"workload", "bm_cc"}}, append(make(Features, 1, 1000), KV{"a", "b"})}
	for i, v := range values {
		for j, head := range heads {
			want := refFeatures(append(Features(nil), head...), "config", reflect.ValueOf(v))
			got, err := AppendFeatures(head, "config", v)
			if err != nil {
				t.Fatalf("value %d head %d: %v", i, j, err)
			}
			if len(want) == 0 {
				want = nil
			}
			if len(got) == 0 {
				got = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("value %d head %d: flattened\n%v\nwant\n%v", i, j, got, want)
			}
		}
	}
}

// TestAppendFeaturesErrorPath: a rejected kind deep inside slices and
// structs is named by its whole dotted key.
func TestAppendFeaturesErrorPath(t *testing.T) {
	type inner struct {
		Ok int
		Fn func()
	}
	v := struct{ Items []inner }{Items: []inner{{}, {}}}
	_, err := AppendFeatures(nil, "config", v)
	if err == nil || !strings.Contains(err.Error(), "config.items.0.fn (kind func)") {
		t.Fatalf("error %v does not name config.items.0.fn", err)
	}
}

// TestAppendCanonical: Canonical is AppendCanonical into a new buffer, and
// appending keeps what the buffer already holds.
func TestAppendCanonical(t *testing.T) {
	f := Features{{"workload", "bm_cc"}, {"config.capacity", "2048"}}
	const want = "workload=bm_cc\x1fconfig.capacity=2048"
	if got := f.Canonical(); got != want {
		t.Fatalf("Canonical = %q, want %q", got, want)
	}
	if got := string(f.AppendCanonical([]byte("x:"))); got != "x:"+want {
		t.Fatalf("AppendCanonical = %q", got)
	}
	if got := (Features{}).Canonical(); got != "" {
		t.Fatalf("empty Canonical = %q", got)
	}
}

// FuzzNumericValue: NumericValue agrees with strconv.ParseFloat on every
// string except the two booleans, which map to 1 and 0 — the cheap
// first-byte rejection must never turn away a string ParseFloat accepts.
func FuzzNumericValue(f *testing.F) {
	for _, s := range []string{
		"", "0", "2048", "-1", "+.5", ".5", "1e9", "1E-3", "0x1p-2", "0X1P+3", "1_000", "0x_1p0",
		"inf", "+Inf", "-INF", "infinity", "Infinity", "nan", "NaN", "-nan", "+NaN",
		"true", "false", "True", "bm_cc", "SPEC CPU 2017", "nutch", "i", "n", " 1", "1 ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := NumericValue(s)
		switch s {
		case "true":
			if !ok || got != 1 {
				t.Fatalf("NumericValue(%q) = %v, %v; want 1, true", s, got, ok)
			}
			return
		case "false":
			if !ok || got != 0 {
				t.Fatalf("NumericValue(%q) = %v, %v; want 0, true", s, got, ok)
			}
			return
		}
		want, err := strconv.ParseFloat(s, 64)
		if ok != (err == nil) || (ok && math.Float64bits(got) != math.Float64bits(want)) {
			t.Fatalf("NumericValue(%q) = %v, %v; ParseFloat = %v, %v", s, got, ok, want, err)
		}
	})
}

// TestNumericValueRejectsWithoutAllocating: a categorical value that
// cannot start a number costs nothing.
func TestNumericValueRejectsWithoutAllocating(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { NumericValue("SPEC CPU 2017") }); n != 0 {
		t.Fatalf("rejecting a categorical value allocates %v times", n)
	}
}
