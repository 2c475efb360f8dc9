package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// spec is the part of BENCHMARK.json the comparator reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// specMetric is one metric's direction and bound (0 for per-layer metrics,
// which have none).
type specMetric struct {
	unit, better string
	bound        float64
}

func loadSpec(path string) (map[string]specMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]specMetric{}
	for _, m := range s.EndToEnd {
		out[m.Name] = specMetric{m.Unit, m.Better, m.Bound}
	}
	for _, m := range s.PerLayer {
		out[m.Name] = specMetric{m.Unit, m.Better, 0}
	}
	return out, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with metric directions and bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: perfbench compare [-spec BENCHMARK.json] OLD.jsonl NEW.jsonl")
	}
	defs, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	old, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	compare(os.Stdout, defs, old, cur)
	return nil
}

// sample is one metric of one workload across the runs of a result set, in
// file order.
type sample struct {
	workload, metric string
	values           []float64
}

// group collects the values of each (workload, metric) pair in first-seen
// order.
func group(recs []record) ([]sample, map[[2]string]*sample) {
	var order []sample
	idx := map[[2]string]int{}
	for _, r := range recs {
		for _, name := range sortedKeys(r.Metrics) {
			k := [2]string{r.Workload, name}
			i, ok := idx[k]
			if !ok {
				i = len(order)
				idx[k] = i
				order = append(order, sample{workload: r.Workload, metric: name})
			}
			order[i].values = append(order[i].values, r.Metrics[name].Value)
		}
	}
	byKey := make(map[[2]string]*sample, len(order))
	for i := range order {
		byKey[[2]string{order[i].workload, order[i].metric}] = &order[i]
	}
	return order, byKey
}

// compare prints, for every workload and metric in both sets, each side's
// median and quartiles, the pairs the new set won (run i of one set against
// run i of the other; ties count for neither) and a verdict.
func compare(w io.Writer, defs map[string]specMetric, old, cur []record) {
	hostWarning(w, old, cur)
	digestNote(w, old, cur)
	_, oldBy := group(old)
	curOrder, _ := group(cur)
	fmt.Fprintf(w, "%-18s %-36s %4s %26s %26s %9s %8s  %s\n",
		"workload", "metric", "n", "old median [q1 q3]", "new median [q1 q3]", "won", "change", "verdict")
	for _, c := range curOrder {
		o, ok := oldBy[[2]string{c.workload, c.metric}]
		if !ok {
			continue
		}
		d, ok := defs[c.metric]
		if !ok {
			d = specMetric{better: "lower"}
		}
		v := judge(o.values, c.values, d)
		fmt.Fprintf(w, "%-18s %-36s %4d %26s %26s %9s %+7.2f%%  %s\n",
			c.workload, c.metric, min(len(o.values), len(c.values)),
			summary(o.values), summary(c.values),
			fmt.Sprintf("%d/%d", v.won, v.pairs), 100*v.change, v.verdict)
	}
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", median(xs), q1, q3)
}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	won, pairs int
	change     float64 // new median / old median - 1
	verdict    string
}

// judge applies the benchmark's rules. A gain needs the new set to win at
// least nine tenths of the pairs and the medians to differ by more than the
// old set's quartile spread. A regression is a median worse than the old
// one by more than the bound. Where either set spreads wider than the
// bound, the metric is unresolved unless every new run beats every old one.
func judge(old, cur []float64, d specMetric) verdict {
	better := func(a, b float64) bool { // a better than b
		if d.better == "higher" {
			return a > b
		}
		return a < b
	}
	var v verdict
	v.pairs = min(len(old), len(cur))
	for i := 0; i < v.pairs; i++ {
		if better(cur[i], old[i]) {
			v.won++
		}
	}
	mo, mc := median(old), median(cur)
	if mo != 0 {
		v.change = mc/mo - 1
	}
	oq1, oq3 := quartiles(old)
	cq1, cq3 := quartiles(cur)
	spread := func(q1, q3, m float64) float64 {
		if m == 0 {
			return 0
		}
		return math.Abs(q3-q1) / math.Abs(m)
	}
	worse := v.change
	if d.better == "higher" {
		worse = -v.change
	}
	allBetter := true
	for _, c := range cur {
		for _, o := range old {
			if !better(c, o) {
				allBetter = false
			}
		}
	}
	switch {
	case equal(old) && equal(cur) && mo == mc:
		v.verdict = "identical"
	case d.bound > 0 && (spread(oq1, oq3, mo) > d.bound || spread(cq1, cq3, mc) > d.bound) && !allBetter:
		v.verdict = "unresolved (spread wider than bound)"
	case d.bound > 0 && worse > d.bound:
		v.verdict = fmt.Sprintf("REGRESSION (worse than bound %.0f%%)", 100*d.bound)
	case v.pairs > 0 && 10*v.won >= 9*v.pairs && better(mc, mo) && math.Abs(mc-mo) > math.Abs(oq3-oq1):
		v.verdict = "gain"
	case d.bound > 0:
		v.verdict = "within bound"
	default:
		v.verdict = "no claim"
	}
	return v
}

func equal(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// hostWarning notes result sets from different hosts or toolchains, whose
// timings do not compare.
func hostWarning(w io.Writer, old, cur []record) {
	key := func(m manifest) string {
		return fmt.Sprintf("%s | nproc %d | GOMAXPROCS %d | %s", m.CPUModel, m.NumCPU, m.GOMAXPROCS, m.GoVersion)
	}
	hosts := map[string]bool{}
	for _, r := range append(append([]record(nil), old...), cur...) {
		hosts[key(r.Manifest)] = true
	}
	if len(hosts) > 1 {
		fmt.Fprintf(w, "warning: the result sets come from %d host/toolchain combinations; timings compare only on one host:\n", len(hosts))
		for _, h := range sortedKeys(hosts) {
			fmt.Fprintf(w, "  %s\n", h)
		}
	}
}

// digestNote names the workloads whose rendering, at one seed, differs
// between the sets: there the change altered what is simulated, not only
// how fast.
func digestNote(w io.Writer, old, cur []record) {
	key := func(r record) string { return fmt.Sprintf("%s seed=%d", r.Workload, r.Manifest.Seed) }
	before := map[string]string{}
	for _, r := range old {
		before[key(r)] = r.Digest
	}
	noted := map[string]bool{}
	for _, r := range cur {
		k := key(r)
		if d, ok := before[k]; ok && d != r.Digest && !noted[k] {
			noted[k] = true
			fmt.Fprintf(w, "note: %s renders differently (%s, was %s): its simulated results changed\n", k, r.Digest, d)
		}
	}
}
