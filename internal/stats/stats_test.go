package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero value should be 0")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("got %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Error("reset failed")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("division by zero should yield 0")
	}
	if got := Ratio(3, 4); got != 0.75 {
		t.Errorf("got %v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(19, 39)
	for _, x := range []int{1, 19, 20, 39, 40, 64, 100} {
		h.Observe(x)
	}
	if h.Total() != 7 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Count(0) != 2 { // 1, 19
		t.Errorf("bucket0 = %d, want 2", h.Count(0))
	}
	if h.Count(1) != 2 { // 20, 39
		t.Errorf("bucket1 = %d, want 2", h.Count(1))
	}
	if h.Count(2) != 3 { // 40, 64, 100 (overflow)
		t.Errorf("bucket2 = %d, want 3", h.Count(2))
	}
	if h.Buckets() != 3 {
		t.Errorf("buckets = %d", h.Buckets())
	}
}

func TestHistogramFractionsSumToOne(t *testing.T) {
	if err := quick.Check(func(samples []uint8) bool {
		if len(samples) == 0 {
			return true
		}
		h := NewHistogram(10, 50, 100)
		for _, s := range samples {
			h.Observe(int(s))
		}
		var sum float64
		for i := 0; i < h.Buckets(); i++ {
			sum += h.Fraction(i)
		}
		return math.Abs(sum-1) < 1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds should panic")
		}
	}()
	NewHistogram(5, 5)
}

func TestDistribution(t *testing.T) {
	var d Distribution
	d.Observe(1)
	d.Observe(1)
	d.Observe(2)
	if d.Total() != 3 {
		t.Fatalf("total = %d", d.Total())
	}
	if d.Fraction(1) != 2.0/3 {
		t.Errorf("fraction(1) = %v", d.Fraction(1))
	}
	if d.Fraction(7) != 0 {
		t.Errorf("unobserved key fraction = %v", d.Fraction(7))
	}
	if b := d.readBuckets(nil); len(b) != 2 || b[0] != (Bucket{Le: 1, Count: 2}) || b[1] != (Bucket{Le: 2, Count: 1}) {
		t.Errorf("buckets = %v", b)
	}
	d.Reset()
	if d.Total() != 0 || len(d.readBuckets(nil)) != 0 || d.Fraction(1) != 0 {
		t.Errorf("after Reset: total %d, buckets %v", d.Total(), d.readBuckets(nil))
	}
	d.Observe(3)
	if b := d.readBuckets(nil); len(b) != 1 || b[0].Le != 3 || d.Fraction(3) != 1 {
		t.Errorf("after Reset and one sample: buckets %v, fraction(3) %v", b, d.Fraction(3))
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean(2,8) = %v, want 4", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("geomean(empty) = %v", g)
	}
	// Non-positive entries are skipped.
	if g := GeoMean([]float64{0, 4}); math.Abs(g-4) > 1e-9 {
		t.Errorf("geomean skipping zero = %v", g)
	}
}

func TestArithMean(t *testing.T) {
	if m := ArithMean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("got %v", m)
	}
	if m := ArithMean(nil); m != 0 {
		t.Errorf("empty mean = %v", m)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.123); got != "12.30%" {
		t.Errorf("got %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Title", "name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRowf("beta", "%.2f", 2.5)
	tab.AddRow("short") // padded
	out := tab.String()
	if !strings.Contains(out, "Title") || !strings.Contains(out, "alpha") {
		t.Errorf("missing content:\n%s", out)
	}
	if !strings.Contains(out, "2.50") {
		t.Errorf("AddRowf formatting missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, rule, 3 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: every row at least as wide as the header start of col 2.
	hdr := lines[1]
	col2 := strings.Index(hdr, "value")
	if col2 < 0 {
		t.Fatalf("header malformed: %q", hdr)
	}
	if !strings.HasPrefix(lines[4][col2:], "2.50") {
		t.Errorf("column misaligned: %q", lines[4])
	}
}
