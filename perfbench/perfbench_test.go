package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesDriver keeps BENCHMARK.json and the metrics this
// program prints in step: same names, units and directions, in order.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, driver %q", i, w.Name, workloads[i].name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: json %d+%d, driver %d+%d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	var setupBound, maxBound float64
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d: json %+v, driver %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: json %+v, driver %+v", i, m, d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1.5}, 0.625, 3.25, 5.875},
		{[]float64{2.2, 9.1, 4.4, 7.7, 1.0, 3.3, 8.8}, 2.2, 4.4, 8.8},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		med := median(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 || math.Abs(med-c.med) > 1e-12 {
			t.Errorf("%v: got q1=%v med=%v q3=%v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestCellDiff(t *testing.T) {
	ref := "=== x ===\nT\nY vs X\nX  a  b\n1  1.00  2.00\n2  3.00  -\n\n"
	if n := cellDiff(ref, ref); n != 0 {
		t.Errorf("identical renderings differ in %d cells", n)
	}
	if n := cellDiff(ref, strings.Replace(ref, "3.00", "ERR", 1)); n != 1 {
		t.Errorf("one changed cell: got %d", n)
	}
	if n := cellDiff(ref, strings.Replace(ref, "2  3.00  -\n", "", 1)); n != 3 {
		t.Errorf("missing row of 3 fields: got %d", n)
	}
}

func TestSplitSections(t *testing.T) {
	got := splitSections("=== a ===\nx\n\n=== b ===\ny\n")
	if got["a"] != "=== a ===\nx\n\n" || got["b"] != "=== b ===\ny\n" || len(got) != 2 {
		t.Errorf("sections: %q", got)
	}
}

func TestGateCountsEachFailedPointOnce(t *testing.T) {
	g := &gate{ref: map[string]string{"e": "=== e ===\n1 2.00\n2 3.00\n"}, events: map[string]int64{}}
	pass := func(render string, errs int, events int64) passResult {
		return passResult{exps: []expRun{{key: "e", render: render, points: 2, errs: errs, events: events}}}
	}
	if n := g.check(pass("=== e ===\n1 2.00\n2 3.00\n", 0, 10)); n != 0 {
		t.Errorf("matching pass: %d failed", n)
	}
	// An ERR cell both differs from the reference and is an error row.
	if n := g.check(pass("=== e ===\n1 2.00\n2 ERR\n", 1, 10)); n != 1 {
		t.Errorf("one ERR point: %d failed", n)
	}
	if n := g.check(pass("=== e ===\n1  2.00\n2 3.00\n", 0, 10)); n != 1 {
		t.Errorf("same cells, other spacing: %d failed, want 1", n)
	}
	if n := g.check(pass("=== e ===\n1 2.00\n2 3.00\n", 0, 11)); n != 2 {
		t.Errorf("event count changed: %d failed, want every point", n)
	}
	sharded := pass("=== e ===\n1 2.00\n2 3.00\n", 0, 11)
	sharded.sharded = true
	if n := g.check(sharded); n != 0 {
		t.Errorf("sharded pass with another event count: %d failed", n)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "driver", Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: "core", Start: 2, End: 5},
		{ID: 3, Parent: 1, Layer: "core", Start: 4, End: 7},
		{ID: 4, Parent: 2, Layer: "ib", Start: 2, End: 3},
	}
	got := selfTimes(spans)
	want := map[string]float64{"driver": 5e-6, "core": 5e-6, "ib": 1e-6}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-15 {
			t.Errorf("%s self time %v ms, want %v", k, got[k], v)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{better: "lower", bound: 0.1}
	old := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scale := func(f float64) []float64 {
		out := make([]float64, len(old))
		for i, v := range old {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		cur  []float64
		d    specMetric
		want string
	}{
		{old, lower, "within bound"},
		{scale(0.8), lower, "gain"},
		{scale(1.2), lower, "REGRESSION"},
		{scale(1.05), lower, "within bound"},
		{scale(0.8), specMetric{better: "higher", bound: 0.1}, "REGRESSION"},
		{[]float64{5, 15, 5, 15, 5, 15, 5, 15, 5, 15}, lower, "unresolved"},
		{scale(0.8), specMetric{better: "lower"}, "gain"},
	} {
		if v := judge(old, c.cur, c.d); !strings.HasPrefix(v.verdict, c.want) {
			t.Errorf("cur %v (%+v): verdict %q, want %q", c.cur, c.d, v.verdict, c.want)
		}
	}
	counts := []float64{7, 7, 7}
	if v := judge(counts, counts, lower); v.verdict != "identical" {
		t.Errorf("equal counts: verdict %q", v.verdict)
	}
}
