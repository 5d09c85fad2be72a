package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// The reference values are Python's statistics.quantiles(data, n=4), the
// definition the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1, 2, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5.5, 1.25, 9, 2, 7, 3.5, 8}, [3]float64{2, 5.5, 8}},
	} {
		q1, q2, q3 := quartiles(c.data)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.data, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestWorsening(t *testing.T) {
	for _, c := range []struct {
		prev, cur float64
		better    string
		want      float64
	}{
		{100, 110, "lower", 0.1}, {100, 90, "lower", -0.1},
		{100, 90, "higher", 0.1}, {100, 110, "higher", -0.1},
	} {
		if got := worsening(c.prev, c.cur, c.better); !near(got, c.want) {
			t.Errorf("worsening(%v, %v, %s) = %v, want %v", c.prev, c.cur, c.better, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 90}, {100, 90}, // p90 once ten ops lie beyond it
		{50, 80}, {40, 75}, {25, 60}, // else the highest with ten beyond
		{20, 50}, {15, 50}, {1, 50}, {0, 50}, // never below the median
	} {
		if got := tailPercentile(c.n); !near(got, c.want) {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The rule's promise: at least ten samples beyond the chosen percentile
	// whenever the run has twenty or more.
	for n := 20; n <= 500; n++ {
		p := tailPercentile(n)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		cut := percentile(xs, p)
		beyond := 0
		for _, x := range xs {
			if x > cut {
				beyond++
			}
		}
		if beyond < 10 && p > 50 {
			t.Fatalf("n=%d: p%.2f has %d samples beyond it, want >= 10", n, p, beyond)
		}
	}
}

func TestNames(t *testing.T) {
	for _, ok := range []string{"stress", "wildcard_storm", "tbon.queue_depth_hw.up", "1x", "a-b.c_d"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "é", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	long := "a"
	for len(long) < 64 {
		long += "b"
	}
	if !validName(long) || validName(long+"c") {
		t.Error("names may have 64 characters, not 65")
	}
	for _, ok := range []string{"ms", "1/s", "%", "count", "bytes", "x"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "m s", "seventeen-letters", "ms;"} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true", bad)
		}
	}
}

func TestBuildRefusesBadMetrics(t *testing.T) {
	defs := []metricDef{{"a.b", "ms"}}
	if _, err := build(defs, map[string]float64{"a.b": 1}); err != nil {
		t.Errorf("good metric refused: %v", err)
	}
	for _, c := range []struct {
		defs []metricDef
		vals map[string]float64
	}{
		{defs, map[string]float64{}},                               // missing
		{defs, map[string]float64{"a.b": 1, "c": 2}},               // extra
		{defs, map[string]float64{"a.b": math.NaN()}},              // not finite
		{[]metricDef{{"a b", "ms"}}, map[string]float64{"a b": 1}}, // bad name
		{[]metricDef{{"a", "m s"}}, map[string]float64{"a": 1}},    // bad unit
	} {
		if _, err := build(c.defs, c.vals); err == nil {
			t.Errorf("build(%v, %v) accepted", c.defs, c.vals)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 50, End: 70}, // sticks out of b
		{ID: 5, Name: "op", Start: 200, End: 210},
	}}
	self := tr.selfTimes()
	want := map[string][]int{"op": {50, 10}, "a": {30}, "b": {20}, "c": {20}}
	for name, ds := range want {
		if len(self[name]) != len(ds) {
			t.Fatalf("%s: %d self times, want %d", name, len(self[name]), len(ds))
		}
		for i, d := range ds {
			if int(self[name][i]) != d {
				t.Errorf("%s[%d] self = %v, want %d", name, i, self[name][i], d)
			}
		}
	}
}

// The tracing overhead compares whole iterations, not only the op's wall
// time, so work the tracer adds around the op is counted.
func TestOverheadPctUsesWholeIterations(t *testing.T) {
	ms := time.Millisecond
	traced := []opSample{{wall: 100 * ms, iter: 121 * ms}, {wall: 100 * ms, iter: 99 * ms}, {wall: 100 * ms, iter: 110 * ms}}
	plain := []opSample{{wall: 100 * ms, iter: 100 * ms}, {wall: 100 * ms, iter: 90 * ms}, {wall: 100 * ms, iter: 130 * ms}}
	if got := overheadPct(traced, plain); !near(got, 10) {
		t.Errorf("overheadPct = %v, want 10", got)
	}
	if got := overheadPct(nil, plain); got != 0 {
		t.Errorf("overheadPct without traced ops = %v, want 0", got)
	}
}
