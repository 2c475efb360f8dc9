package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric. The lists below must match
// BENCHMARK.json (perfbench_test.go checks it), which adds each end-to-end
// metric's regression bound.
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics come from untraced passes; every one is host-side, since
// what a user of this simulator pays for a regenerated figure is host time.
// The time of a pass is reported as CPU time: the host is a shared virtual
// machine whose neighbours take its CPUs for tens of seconds at a time, and
// wall time there measures them more than the program (see README.md).
var endToEnd = []metricDef{
	{"cpu_s", "s", "lower"},        // median host CPU seconds, every thread, for one pass of the workload
	{"setup_s", "s", "lower"},      // median host CPU seconds before a pass's first simulated event
	{"peak_rss_mb", "MB", "lower"}, // median over passes of each pass's peak resident memory, the timeline export's aside
	// Points that rendered ERR or disagreed with the reference count against
	// this share. It is the complement of a failure share, so that it is
	// never 0 and a ratio against the parent is defined.
	{"ok_point_frac", "fraction", "higher"},
}

// perLayer metrics come from a --trace 1 run: probes that call one layer's
// public functions, the traced workload pass and its telemetry counters.
var perLayer = []metricDef{
	{"wall_s", "s", "lower"}, // median host wall seconds for one pass
	{"core.point_wall_ms.p50", "ms", "lower"},
	{"core.point_wall_ms.p90", "ms", "lower"},
	{"core.runner_overhead_ms", "ms", "lower"},
	{"core.allocs_per_event", "allocs/event", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.schedule_deep.ns_per_event", "ns", "lower"},
	{"sim.schedule_shallow.ns_per_event", "ns", "lower"},
	{"sim.handoff.ns_per_switch", "ns", "lower"},
	{"sim.peak_pending", "count", "lower"},
	{"sim.shard.windows_per_event", "windows/event", "lower"},
	{"sim.shard.horizon_us_per_window", "us", "higher"},
	{"sim.shard.speedup", "x", "higher"},
	{"sim.shard.mismatch_points", "count", "lower"},
	{"ib.rc_stream.ns_per_event", "ns", "lower"},
	{"ib.rc_stream.allocs_per_op", "allocs/op", "lower"},
	{"ib.ud_stream.ns_per_event", "ns", "lower"},
	{"ib.queued_stream.ns_per_event", "ns", "lower"},
	{"ib.lossless_rc.failed_ops", "count", "lower"},
	{"ib.rc.retransmit_ratio", "ratio", "lower"},
	{"wan.link.tx_pkts", "count", "lower"},
	{"wan.link.overflow_drops", "count", "lower"},
	{"wan.link.ecn_marks", "count", "lower"},
	{"wan.link.credit_stalls", "count", "lower"},
	{"tcpsim.stream.ns_per_segment", "ns", "lower"},
	{"tcpsim.allocs_per_segment", "allocs/segment", "lower"},
	{"tcpsim.retransmit_ratio", "ratio", "lower"},
	{"mpi.bw.ns_per_event", "ns", "lower"},
	{"mpi.bcast_hier.ns_per_op", "ns", "lower"},
	{"nas.kernel.ns_per_event", "ns", "lower"},
	{"nfs.iozone_rdma.ns_per_event", "ns", "lower"},
	{"nfs.iozone_ipoib.ns_per_event", "ns", "lower"},
	{"topo.build_ms.paper", "ms", "lower"},
	{"topo.build_ms.mesh4", "ms", "lower"},
	{"fault.rc_stream_lossy.ns_per_event", "ns", "lower"},
	{"telemetry.on_over_off", "x", "lower"},
	{"telemetry.off.allocs_per_op", "allocs/op", "lower"},
	{"telemetry.timeline_export_ms", "ms", "lower"},
	{"telemetry.timeline_bytes", "bytes", "lower"},
	{"telemetry.timeline_export_peak_mb", "MB", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measured values by name.
type metricSet map[string]float64

// pick returns the values of defs, in a form ready for the result line. A
// metric that was not measured is a driver bug, not a property of the run.
func (m metricSet) pick(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// median returns the middle value (the mean of the two middle values for an
// even count), as Python's statistics.median does.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the method of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spreads this program prints match the ones the benchmark is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
