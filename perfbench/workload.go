package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// workload is one set of experiments the benchmark times as a unit. Every
// workload runs in this one process, at one point worker (-par 1).
type workload struct {
	name string
	ids  []string
	opt  core.Options
	// shards > 1 runs every point's world on the sharded scheduler with
	// this many OS workers (the CLI's -shards).
	shards int
	// lossy sweeps the experiments twice per pass (see parts).
	lossy bool
	// golden checks the experiments pinned by golden_quick.txt against it.
	golden bool
	// singleHeapRef checks every table against an untimed single-heap run.
	singleHeapRef bool
	// testbed is the topology built in each set-up sample.
	testbed topo.Topology
}

// goldenPath is the rendering of the golden experiments at -quick; the
// driver only reads it.
const goldenPath = "internal/core/testdata/golden_quick.txt"

// lossyWANLoss is lossy-observed's per-packet WAN loss.
const lossyWANLoss = 1e-4

func mustPreset(name string, nodes int, delay sim.Time) topo.Topology {
	t, err := topo.Preset(name, nodes, delay)
	if err != nil {
		panic(err)
	}
	return t
}

// workloads are the benchmark's inputs. failover-services is left out of
// multisite-sharded on purpose: at -shards 2 seven of its TCP points fail in
// milliseconds with a cross-shard wait, so timing it would reward that
// defect and make its fix read as a cpu_s regression. The defect is
// reported as sim.shard.mismatch_points instead.
var workloads = []*workload{
	// The paper's figures: deep heaps on the single-heap kernel, pooled
	// RC/UD packets, ipoib+tcpsim, mpi, nas and nfs/rpc, telemetry off.
	{
		name:    "paper-quick",
		ids:     []string{"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"},
		opt:     core.Options{Quick: true},
		golden:  true,
		testbed: mustPreset("paper", 0, 0),
	},
	// Bounded ECN, tail-drop and lossless queues, tcpsim's ECN and fast
	// retransmit, handoffs between many TCP procs: paths the paper figures
	// barely touch.
	{
		name:    "congest",
		ids:     []string{"congest-streams", "congest-queue"},
		opt:     core.Options{Quick: true},
		testbed: mustPreset("star3", 2, 2*sim.Millisecond),
	},
	// The only workload on the sharded scheduler: windows, mailbox lanes,
	// unpooled packets, routing-epoch re-sweeps; shallow heaps.
	{
		name:          "multisite-sharded",
		ids:           []string{"multisite-bcast", "multisite-allreduce", "multisite-nfs", "failover-kill", "failover-debounce"},
		opt:           core.Options{Topo: "mesh4"},
		shards:        2,
		singleHeapRef: true,
		testbed:       mustPreset("mesh4", 4, sim.Millisecond),
	},
	// The layers of paper-quick used another way: RC retransmit and
	// backoff, per-packet fault decisions, the enabled telemetry path.
	{
		name:    "lossy-observed",
		ids:     []string{"fig8", "fig13"},
		opt:     core.Options{Quick: true},
		lossy:   true,
		testbed: mustPreset("paper", 1, sim.Millisecond),
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// layerOf names the simulator layer that does most of an experiment's
// work; point spans carry it so the trace's self times split by layer.
func layerOf(id string) string {
	switch {
	case id == "table1":
		return "wan"
	case id == "fig3" || id == "fig4" || id == "fig5" || strings.HasPrefix(id, "failover-"):
		return "ib"
	case id == "fig6" || id == "fig7" || strings.HasPrefix(id, "congest-"):
		return "tcpsim"
	case id == "fig12":
		return "nas"
	case id == "fig13" || id == "multisite-nfs":
		return "nfs"
	}
	return "mpi"
}

func lossyPlan(seed uint64) *fault.Plan {
	return &fault.Plan{Seed: seed, WANLoss: lossyWANLoss}
}

// passConfig selects what one pass of a workload attaches.
type passConfig struct {
	seed uint64
	// shards overrides the workload's shard workers when > 0.
	shards int
	// telemetry attaches a metrics registry to workloads that have none
	// (the traced pass reads its counters).
	telemetry bool
	// noTelemetry runs lossy-observed with no telemetry, sampler or export
	// (the baseline of telemetry.on_over_off).
	noTelemetry bool
	// rss, when set, is taken just before the timeline export and just
	// after it, so that the export's peak resident set reads apart from the
	// rest of the pass's.
	rss *rssWatcher
}

// expRun is one experiment of one pass.
type expRun struct {
	key     string // the experiment id and its part's suffix
	render  string
	points  int
	errs    int
	events  int64
	windows int64
	horizon sim.Time
}

// passResult is one pass of a workload.
type passResult struct {
	wall       time.Duration
	sharded    bool
	exps       []expRun
	pointWalls []float64     // ms, every point of the pass
	pointWall  time.Duration // their sum
	mallocs    uint64
	reg        *telemetry.Registry // nil without telemetry
	// peakMB is the peak resident set up to the timeline export, when
	// passConfig.rss is set and the pass exports (0 otherwise).
	peakMB   float64
	timeline timelineExport
}

type timelineExport struct {
	bytes  int64
	wall   time.Duration
	peakMB float64 // when passConfig.rss is set
}

func (p passResult) events() int64 {
	var n int64
	for _, e := range p.exps {
		n += e.events
	}
	return n
}

func (p passResult) points() int {
	n := 0
	for _, e := range p.exps {
		n += e.points
	}
	return n
}

// renderResult renders an experiment's tables as ibwan-exp prints them,
// without the error lines (errors are counted separately).
func renderResult(res core.Result) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "=== %s ===\n", res.ID)
	for _, t := range res.Tables {
		t.Render(&b)
	}
	return b.String()
}

// part is one sweep of a workload's experiments under one configuration.
type part struct {
	suffix  string // tells the part's experiments apart in the gate
	fault   bool   // the seeded wan-loss plan
	metrics bool   // a telemetry registry whose counters the pass reports
	sampled bool   // the 1 ms timeline sampler, then a timeline export
}

// parts returns the sweeps of one pass. lossy-observed sweeps twice: under
// the seeded loss plan with telemetry metrics on, and fault-free with the
// sampler and the export on. The sampler runs fault-free because a lost
// packet stalls an RC point for a 500 ms retry timeout, and the sampler's
// cost grows with simulated time, so under loss its cost would follow how
// many timeouts the seed happens to draw rather than the program's speed.
func (w *workload) parts(cfg passConfig) []part {
	if !w.lossy {
		return []part{{metrics: cfg.telemetry}}
	}
	on := !cfg.noTelemetry
	return []part{{fault: true, metrics: on}, {suffix: " (sampled)", sampled: on}}
}

// runPass runs every experiment of w once. With a non-nil tracer it records
// a workload span, an experiment span per core.RunWith call and a span per
// point under it.
func runPass(w *workload, cfg passConfig, tr *tracer, parent int) (passResult, error) {
	shards := w.shards
	if cfg.shards > 0 {
		shards = cfg.shards
	}
	res := passResult{sharded: shards > 1}
	var expSpan int
	onPoint := func(pm core.PointMetrics) {
		res.pointWalls = append(res.pointWalls, float64(pm.Wall.Nanoseconds())/1e6)
		res.pointWall += pm.Wall
		end := time.Now()
		tr.record(pm.Label, layerOf(pm.Experiment), expSpan, end.Add(-pm.Wall), end)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	wlSpan, endWL := tr.begin("workload "+w.name, "driver", parent)
	start := time.Now()
	for _, pt := range w.parts(cfg) {
		ropt := core.RunnerOptions{Workers: 1, ShardWorkers: shards, OnPoint: onPoint}
		if pt.fault {
			ropt.Fault = lossyPlan(cfg.seed)
		}
		if pt.metrics || pt.sampled {
			ropt.Telemetry = &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
		}
		if pt.metrics {
			res.reg = ropt.Telemetry.Metrics
		}
		if pt.sampled {
			ropt.SampleEvery = sim.Millisecond
		}
		var timelines []telemetry.PointTimeline
		for _, id := range w.ids {
			var endExp func()
			expSpan, endExp = tr.begin("experiment "+id+pt.suffix, "core", wlSpan)
			r := core.RunWith(id, w.opt, ropt)
			endExp()
			res.exps = append(res.exps, expRun{
				key: id + pt.suffix, render: renderResult(r), points: r.Metrics.Points, errs: len(r.Errors),
				events: r.Metrics.Events, windows: r.Metrics.ShardWindows, horizon: r.Metrics.ShardHorizon,
			})
			timelines = append(timelines, r.Timelines...)
		}
		if pt.sampled {
			// Collect the sweeps' garbage and return it to the OS first, so
			// that the export's peak memory is the live timelines plus their
			// encoding, not whatever the collector's timing left behind.
			if cfg.rss != nil {
				res.peakMB = cfg.rss.take()
			}
			debug.FreeOSMemory()
			_, endExport := tr.begin("timeline export", "telemetry", wlSpan)
			tl, err := exportTimeline(timelines)
			endExport()
			if err != nil {
				return res, err
			}
			if cfg.rss != nil {
				tl.peakMB = cfg.rss.take()
			}
			res.timeline = tl
		}
	}
	res.wall = time.Since(start)
	endWL()
	runtime.ReadMemStats(&ms)
	res.mallocs = ms.Mallocs - mallocs0
	return res, nil
}

// byteCounter is a writer that only counts what is written to it.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// exportTimeline serializes the sampled timelines as ibwan-exp
// -timeline-out does, into a writer that only counts bytes, so the figure
// holds the program's work and not the speed of the host's disk.
func exportTimeline(pts []telemetry.PointTimeline) (timelineExport, error) {
	t0 := time.Now()
	var n byteCounter
	if err := telemetry.WriteTimelineJSON(&n, sim.Millisecond, pts); err != nil {
		return timelineExport{}, fmt.Errorf("timeline export: %w", err)
	}
	return timelineExport{bytes: int64(n), wall: time.Since(t0)}, nil
}

// setupSample does what a pass does before its first simulated event: the
// driver's own preparation (reading the golden rendering, where the
// workload checks against it), expanding every experiment's plan
// (Spec.Build) and building the workload's testbed (topo.Build), with the
// fault plan attached first where the workload has one. It returns the
// testbed's environment for the caller to shut down once its clock has
// stopped. Process start-up is left out, since it happens once per process
// and cannot be sampled.
func setupSample(w *workload, seed uint64) (*sim.Env, error) {
	if w.golden {
		if _, err := readGolden(); err != nil {
			return nil, err
		}
	}
	for _, id := range w.ids {
		spec, ok := core.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		spec.Build(w.opt)
	}
	env := sim.NewEnv()
	if w.shards > 1 {
		env.SetShardWorkers(w.shards)
	}
	if w.lossy {
		if err := fault.AttachPlan(env, lossyPlan(seed)); err != nil {
			return env, err
		}
	}
	_, err := topo.Build(env, w.testbed)
	return env, err
}

// readGolden returns the golden rendering split by experiment.
func readGolden() (map[string]string, error) {
	b, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		return nil, fmt.Errorf("golden rendering: %w", err)
	}
	return splitSections(string(b)), nil
}

// gate is a workload's correctness check. Every pass is compared, table
// cell by table cell, with a reference rendering per experiment: the golden
// file where it pins the experiment, an untimed single-heap run for
// multisite-sharded, and otherwise the run's own first pass. Every pass must
// also execute the same number of events as the first.
//
// The event check is skipped on sharded passes: on a partitioned world the
// shards still running when one of them stops the run may each finish the
// event they are on, so the executed count after a Stop is not
// deterministic (see sim.Env.Stop). Their tables must still match.
type gate struct {
	ref    map[string]string
	events map[string]int64
	digest string // the first pass's rendering and event count (the single-heap reference's count on sharded workloads)
}

func newGate(w *workload) (*gate, error) {
	g := &gate{ref: map[string]string{}, events: map[string]int64{}}
	if w.golden {
		ref, err := readGolden()
		if err != nil {
			return nil, err
		}
		g.ref = ref
	}
	return g, nil
}

// singleHeapReference renders w's experiments on the single-heap scheduler,
// untimed, as the reference for a sharded workload.
func (g *gate) singleHeapReference(w *workload) error {
	if !w.singleHeapRef {
		return nil
	}
	for _, id := range w.ids {
		r := core.RunWith(id, w.opt, core.RunnerOptions{Workers: 1, ShardWorkers: 1})
		if len(r.Errors) > 0 {
			return fmt.Errorf("single-heap reference %s: %d points failed, first: %s", id, len(r.Errors), r.Errors[0].Err)
		}
		g.ref[id] = renderResult(r)
		g.events[id] = r.Metrics.Events
	}
	return nil
}

// check returns the failed points of one pass. A point fails when it
// rendered ERR or when its cell differs from the reference; a point that
// does both counts once, as the larger count per experiment. An experiment
// whose event count differs from the first pass fails every point.
func (g *gate) check(p passResult) (failed int) {
	first := g.digest == ""
	for _, e := range p.exps {
		if _, ok := g.ref[e.key]; !ok {
			g.ref[e.key] = e.render
		}
		bad := max(e.errs, cellDiff(g.ref[e.key], e.render))
		if bad == 0 && e.render != g.ref[e.key] {
			bad = 1 // the same cells, laid out differently: not byte for byte
		}
		if want, ok := g.events[e.key]; !p.sharded && !ok {
			g.events[e.key] = e.events
		} else if !p.sharded && want != e.events {
			bad = e.points
		}
		failed += min(bad, e.points)
	}
	if first {
		var all strings.Builder
		var events int64
		for _, e := range p.exps {
			all.WriteString(e.render)
			events += g.events[e.key]
		}
		g.digest = fmt.Sprintf("%s events=%d", sha256Hex([]byte(all.String()))[:16], events)
	}
	return failed
}

// splitSections splits a rendering into its "=== id ===" sections.
func splitSections(text string) map[string]string {
	out := map[string]string{}
	var id string
	var cur strings.Builder
	flush := func() {
		if id != "" {
			out[id] = cur.String()
		}
		cur.Reset()
	}
	for _, line := range strings.SplitAfter(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "=== "); ok && strings.HasSuffix(rest, " ===\n") {
			flush()
			id = strings.TrimSuffix(rest, " ===\n")
		}
		cur.WriteString(line)
	}
	flush()
	return out
}

// cellDiff counts the whitespace-separated fields that differ between two
// renderings, line by line; a missing line counts all its fields.
func cellDiff(want, got string) int {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := 0
	for i := 0; i < max(len(wl), len(gl)); i++ {
		var wf, gf []string
		if i < len(wl) {
			wf = strings.Fields(wl[i])
		}
		if i < len(gl) {
			gf = strings.Fields(gl[i])
		}
		for j := 0; j < max(len(wf), len(gf)); j++ {
			if j >= len(wf) || j >= len(gf) || wf[j] != gf[j] {
				n++
			}
		}
	}
	return n
}
