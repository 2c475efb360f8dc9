// Command perfbench is the simulator's benchmark: it times whole workloads
// of experiments end to end, probes each layer through its public
// functions, and checks every rendered table against a reference.
//
// Run it through run.sh, which builds it from the checkout:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash perfbench/run.sh --workload all --trace 1
//	bash perfbench/run.sh compare [-spec BENCHMARK.json] OLD.jsonl NEW.jsonl
//
// With --trace 0 the last line of standard output is one JSON object whose
// metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they are
// the per-layer ones, and the spans go to a trace file. Every run also
// appends a record with its manifest to --out, the input of compare.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// Seeds for lossy-observed's fault plan: the default used while tuning, and
// a held-out one for checking a claim.
const (
	defaultSeed = 7
	heldOutSeed = 11
	outDir      = ".bench_build/perfbench"
	setupBatch  = 21
	setupGroup  = 10
	// maxProcs caps the OS threads running Go code: one point worker, and
	// two shard workers on multisite-sharded.
	maxProcs = 2
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
			os.Exit(1)
		}
		return
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	wname := flag.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := flag.Uint64("seed", defaultSeed, fmt.Sprintf("seed of lossy-observed's fault plan (held-out seed for claims: %d)", heldOutSeed))
	seconds := flag.Float64("seconds", 25, "measure passes for about this many seconds (at least one pass)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", filepath.Join(outDir, "results.jsonl"), "append a result record here ('' = none)")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	var ws []*workload
	if *wname == "all" {
		ws = workloads
	} else if w, ok := lookupWorkload(*wname); ok {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *wname)
		flag.Usage()
		os.Exit(2)
	}
	if err := checkCPUClocks(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1}
	if err := run(ws, cfg, *out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

type runConfig struct {
	seed    uint64
	seconds time.Duration
	traced  bool
}

// result is one workload's outcome: the result line plus what the record
// and the printed summary carry.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	digest    string
	e2e       metricSet
	layer     metricSet // nil unless traced
}

// record is one line of the --out file.
type record struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Manifest  manifest               `json:"manifest"`
	Digest    string                 `json:"digest"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(ws []*workload, cfg runConfig, out string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var shared metricSet // probes and cross-workload measurements, once per process
	var results []result
	for _, w := range ws {
		r, err := runWorkload(w, cfg, &shared)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		results = append(results, r)
	}

	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range results {
		fmt.Printf("digest %s seed=%d %s\n", r.workload, cfg.seed, r.digest)
		printMetrics(r)
		defs, values := endToEnd, r.e2e
		if cfg.traced {
			defs, values = perLayer, r.layer
		}
		picked, err := values.pick(defs)
		if err != nil {
			return err
		}
		m := collectManifest(r.workload, cfg.seed)
		if out != "" {
			if err := appendRecord(out, record{
				Workload: r.workload, Trace: cfg.traced, Manifest: m, Digest: r.digest,
				Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: picked,
			}); err != nil {
				return err
			}
		}
		if len(results) == 1 {
			mb, _ := json.Marshal(m)
			fmt.Printf("manifest %s\n", mb)
			line.Metrics = picked
		} else {
			for k, v := range picked {
				line.Metrics[r.workload+"/"+k] = v
			}
		}
		line.Correct = line.Correct && r.correct
		line.Attempted += r.attempted
		line.Failed += r.failed
	}
	if !line.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: CORRECTNESS GATE FAILED: some points rendered ERR or differ from the reference")
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runWorkload measures one workload: set-up samples, untimed reference
// runs, then passes until the time budget is spent; traced, it adds one
// traced pass, the probes and the cross-workload measurements.
func runWorkload(w *workload, cfg runConfig, shared *metricSet) (result, error) {
	res := result{workload: w.name, e2e: metricSet{}}
	g, err := newGate(w)
	if err != nil {
		return res, err
	}
	// Set-up is sampled in batches, one before the first pass and one after
	// each pass, so that its median spans the same stretch of the host's
	// speed as the passes do. A single set-up lasts tens of microseconds and
	// scatters by a factor of two, so each sample is the mean of setupGroup
	// back-to-back set-ups, started after a collection so that none of them
	// pays for garbage the ones before it left. It is timed in CPU time of
	// the one thread that does the set-up, like cpu_s.
	var setups []float64
	sampleSetup := func() error {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i := 0; i < setupBatch; i++ {
			runtime.GC()
			var envs [setupGroup]*sim.Env
			var err error
			t0 := threadCPUTime()
			for j := 0; j < setupGroup && err == nil; j++ {
				envs[j], err = setupSample(w, cfg.seed)
			}
			d := threadCPUTime() - t0
			for _, env := range envs {
				if env != nil {
					env.Shutdown()
				}
			}
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, d.Seconds()/setupGroup)
		}
		return nil
	}
	if err := sampleSetup(); err != nil {
		return res, err
	}
	if err := g.singleHeapReference(w); err != nil {
		return res, err
	}

	// Passes run while the next one is expected to end within the budget,
	// and at least once, so a run measures about --seconds whatever the
	// workload's pass time.
	var passes []passResult
	var walls, cpus, peaks []float64
	rss := startRSSWatcher()
	defer rss.close()
	deadline := time.Now().Add(cfg.seconds)
	for len(passes) == 0 || time.Until(deadline).Seconds() >= median(walls) {
		// Each pass starts with the memory of the previous ones returned
		// to the OS, so that its peak is its own. The timeline export's
		// transient is left out of it (see README.md): its height depends
		// on when the collector's cycles end, and it is reported as
		// telemetry.timeline_export_peak_mb instead.
		debug.FreeOSMemory()
		rss.take()
		cpu0 := cpuTime()
		p, err := runPass(w, passConfig{seed: cfg.seed, rss: rss}, nil, 0)
		cpus = append(cpus, (cpuTime() - cpu0).Seconds())
		peak := rss.take()
		if p.timeline.bytes > 0 {
			// The export ends the pass, and the memory it freed is still
			// resident: the pass's peak is the one taken before it.
			peak = p.peakMB
		}
		peaks = append(peaks, peak)
		if err != nil {
			return res, err
		}
		if err := sampleSetup(); err != nil {
			return res, err
		}
		failed := g.check(p)
		res.attempted += p.points()
		res.failed += failed
		passes = append(passes, p)
		walls = append(walls, p.wall.Seconds())
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: %.3fs, %d points, %d failed, %d events\n",
			w.name, len(passes), p.wall.Seconds(), p.points(), failed, p.events())
	}
	res.correct = res.failed == 0
	res.digest = g.digest

	res.e2e["cpu_s"] = median(cpus)
	res.e2e["setup_s"] = median(setups)
	res.e2e["peak_rss_mb"] = median(peaks)
	if res.e2e["peak_rss_mb"] == 0 {
		// No per-pass samples: fall back to the peak of the whole process.
		if res.e2e["peak_rss_mb"], err = maxRSS(); err != nil {
			return res, fmt.Errorf("getrusage: %w", err)
		}
	}
	res.e2e["ok_point_frac"] = 1 - float64(res.failed)/float64(res.attempted)
	if !cfg.traced {
		return res, nil
	}

	res.layer = passLayerMetrics(passes)
	tr := newTracer()
	traced, err := runPass(w, passConfig{seed: cfg.seed, telemetry: true}, tr, 0)
	if err != nil {
		return res, err
	}
	res.attempted += traced.points()
	res.failed += g.check(traced)
	res.correct = res.failed == 0
	res.layer["trace.overhead_s"] = traced.wall.Seconds() - median(walls)
	counterMetrics(traced, res.layer)
	if *shared == nil {
		*shared = metricSet{}
		root, end := tr.begin("layer probes", "driver", 0)
		err := runProbes(prober{tr: tr, parent: root}, cfg.seed, *shared)
		if err == nil {
			err = crossWorkload(tr, root, cfg.seed, *shared)
		}
		end()
		if err != nil {
			return res, err
		}
	}
	for k, v := range *shared {
		res.layer[k] = v
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return res, err
	}
	fmt.Printf("trace %s: %d spans in %s\n", w.name, len(tr.spans), path)
	return res, nil
}

// passLayerMetrics derives the core and sim layer metrics from the
// untraced passes.
func passLayerMetrics(passes []passResult) metricSet {
	m := metricSet{}
	var pointWalls, overhead, allocs, walls []float64
	for _, p := range passes {
		pointWalls = append(pointWalls, p.pointWalls...)
		overhead = append(overhead, float64((p.wall-p.pointWall).Nanoseconds())/1e6)
		allocs = append(allocs, float64(p.mallocs)/float64(max(p.events(), 1)))
		walls = append(walls, p.wall.Seconds())
	}
	first := passes[0]
	var windows int64
	var horizonUS float64
	for _, e := range first.exps {
		windows += e.windows
		horizonUS += e.horizon.Microseconds()
	}
	m["core.point_wall_ms.p50"] = percentile(pointWalls, 50)
	m["core.point_wall_ms.p90"] = percentile(pointWalls, 90)
	m["core.runner_overhead_ms"] = median(overhead)
	m["core.allocs_per_event"] = median(allocs)
	m["sim.events"] = float64(first.events())
	m["wall_s"] = median(walls)
	m["sim.events_per_s"] = float64(first.events()) / median(walls)
	m["sim.shard.windows_per_event"] = float64(windows) / float64(max(first.events(), 1))
	m["sim.shard.horizon_us_per_window"] = 0
	if windows > 0 {
		m["sim.shard.horizon_us_per_window"] = horizonUS / float64(windows)
	}
	return m
}

// counterMetrics reads the telemetry counters of the traced pass. They are
// simulated statistics: a change that only speeds the program up leaves
// them identical.
func counterMetrics(p passResult, m metricSet) {
	c := func(name string) float64 { return float64(p.reg.Counter(name).Value()) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["wan.link.tx_pkts"] = c("wan.link.tx.pkts")
	m["wan.link.overflow_drops"] = c("wan.link.overflow.drops")
	m["wan.link.ecn_marks"] = c("wan.link.ecn.marks")
	m["wan.link.credit_stalls"] = c("wan.link.credit.stalls")
	m["ib.rc.retransmit_ratio"] = ratio(c("ib.rc.retransmits"), c("wan.link.tx.pkts"))
	m["tcpsim.retransmit_ratio"] = ratio(c("tcp.retransmits"), c("tcp.tx.segments"))
}

// crossWorkload measures what compares two configurations of the same
// experiments: the sharded scheduler's speed-up and its known mismatch, and
// the cost of telemetry on lossy-observed.
func crossWorkload(tr *tracer, parent int, seed uint64, m metricSet) error {
	// Each pair of configurations runs in the order A, B, B, A, so that
	// drift of the host's speed cancels in their ratio.
	ms, _ := lookupWorkload("multisite-sharded")
	var walls [3]time.Duration
	for _, shards := range []int{1, 2, 2, 1} {
		id, end := tr.begin(fmt.Sprintf("multisite-sharded shards=%d", shards), "driver", parent)
		p, err := runPass(ms, passConfig{shards: shards}, tr, id)
		end()
		if err != nil {
			return err
		}
		walls[shards] += p.wall
	}
	m["sim.shard.speedup"] = walls[1].Seconds() / walls[2].Seconds()

	// failover-services on mesh4: at -shards 2 its TCP points fail with a
	// cross-shard wait; at -shards 1 they measure. Every differing cell
	// counts.
	fs := &workload{name: "failover-services", ids: []string{"failover-services"}, opt: ms.opt}
	var renders [3]string
	for _, shards := range []int{1, 2} {
		id, end := tr.begin(fmt.Sprintf("failover-services shards=%d", shards), "driver", parent)
		p, err := runPass(fs, passConfig{shards: shards}, tr, id)
		end()
		if err != nil {
			return err
		}
		renders[shards] = p.exps[0].render
	}
	m["sim.shard.mismatch_points"] = float64(cellDiff(renders[1], renders[2]))

	lo, _ := lookupWorkload("lossy-observed")
	var wall [2]time.Duration
	var export, exportPeak []float64
	var bytes int64
	rss := startRSSWatcher()
	defer rss.close()
	for _, on := range []bool{false, true, true, false} {
		id, end := tr.begin(fmt.Sprintf("lossy-observed telemetry on=%v", on), "driver", parent)
		debug.FreeOSMemory()
		p, err := runPass(lo, passConfig{seed: seed, noTelemetry: !on, rss: rss}, tr, id)
		end()
		if err != nil {
			return err
		}
		if on {
			wall[1] += p.wall
			export = append(export, float64(p.timeline.wall.Nanoseconds())/1e6)
			exportPeak = append(exportPeak, p.timeline.peakMB)
			bytes = p.timeline.bytes
		} else {
			wall[0] += p.wall
		}
	}
	m["telemetry.on_over_off"] = wall[1].Seconds() / wall[0].Seconds()
	m["telemetry.timeline_export_ms"] = median(export)
	m["telemetry.timeline_bytes"] = float64(bytes)
	m["telemetry.timeline_export_peak_mb"] = median(exportPeak)
	return nil
}

func printMetrics(r result) {
	show := func(defs []metricDef, m metricSet) {
		for _, d := range defs {
			if v, ok := m[d.name]; ok {
				fmt.Printf("  %-36s %16.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", r.workload, r.correct, r.attempted, r.failed)
	show(endToEnd, r.e2e)
	if r.layer != nil {
		show(perLayer, r.layer)
	}
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	_, err = f.Write(append(b, '\n'))
	return errors.Join(err, f.Close())
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
