package main

import (
	"math"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty sample should be NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// figures the benchmark's steadiness rule is evaluated with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1}, -1.25, 12.25}, // Python extrapolates past the ends
		{[]float64{3, 1, 2}, 1, 3},       // unsorted input
		{[]float64{2, 2, 2, 2, 2}, 2, 2},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v", got)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	for _, c := range []struct {
		p      float64
		v      float64
		beyond int
	}{
		{90, 90.1, 10}, {95, 95.05, 5}, {50, 50.5, 50}, {100, 100, 0},
	} {
		v, beyond := tail(xs, c.p)
		if !near(v, c.v) || beyond != c.beyond {
			t.Errorf("tail(1..100, %v) = %v with %d beyond; want %v with %d", c.p, v, beyond, c.v, c.beyond)
		}
	}
	if v, beyond := tail([]float64{3, 9, 1}, 90); !near(v, 7.8) || beyond != 1 {
		t.Errorf("small sample tail = %v with %d beyond", v, beyond)
	}
}

func TestJudge(t *testing.T) {
	d := metricDef{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	same := []float64{101, 100, 99, 102, 100, 98, 101, 99, 100, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"gain", parent, faster, "gain"},
		{"regression", parent, slower, "regression"},
		{"unresolved", noisy, same, "unresolved"},
		{"unchanged", parent, same, "no regression"},
	} {
		if got := judge("w", d, c.parent, c.change).verdict; !strings.HasPrefix(got, c.want) {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	up := metricDef{Name: "nets_per_s", Better: "higher", Bound: 0.10}
	if got := judge("w", up, parent, slower).verdict; got != "gain" {
		t.Errorf("higher-is-better gain: verdict %q", got)
	}
}

// A host that slows to half speed part-way through a run doubles both
// its requests and the calibrations around them, so away from the change
// the scaled requests read the same; one slow calibration, as when a
// collection overlaps it, moves nothing.
func TestHostScale(t *testing.T) {
	r := refCalibrationS
	cal := []float64{r, r, r, r, r, 2 * r, 2 * r, 2 * r, 2 * r, 2 * r, 2 * r}
	for _, i := range []int{0, 1, 2, 7, 8, 9} {
		lat := 100.0
		if i >= 5 {
			lat = 200
		}
		if got := lat * hostScale(cal, i); !near(got, 100) {
			t.Errorf("request %d scales to %v ms, want 100", i, got)
		}
	}
	cal = []float64{r, r, r, 3 * r, r, r, r}
	for i := 0; i < len(cal)-1; i++ {
		if got := hostScale(cal, i); !near(got, 1) {
			t.Errorf("one slow calibration moves request %d's scale to %v", i, got)
		}
	}
}
