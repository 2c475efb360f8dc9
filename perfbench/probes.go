package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/fault"
	"repro/internal/ib"
	"repro/internal/ipoib"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/nfs"
	"repro/internal/perftest"
	"repro/internal/sim"
	"repro/internal/tcpsim"
	"repro/internal/topo"
)

// A probe times one call into one layer's public functions on a testbed of
// its own. Its span holds three children: set-up (building the testbed),
// run (the layer call) and shutdown. Probe sizes are fixed, so their
// figures compare across commits.

// probeResult is what a probe's run measured.
type probeResult struct {
	wall    time.Duration
	events  int64 // simulation events the run executed
	mallocs uint64
}

func (r probeResult) nsPerEvent() float64 { return perUnit(r.wall, r.events) }

func perUnit(d time.Duration, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// prober runs probes under one parent span.
type prober struct {
	tr     *tracer
	parent int
}

// probe runs setup, run and shutdown under spans named after the probe.
// run's wall time, events (of the environment setup returned) and
// allocations are measured; a panic in any phase becomes an error.
func (pr prober) probe(name, layer string, setup func() (*sim.Env, error), run func(env *sim.Env) error) (res probeResult, err error) {
	id, end := pr.tr.begin("probe "+name, "driver", pr.parent)
	defer end()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("probe %s: %v", name, r)
		}
	}()
	t0 := time.Now()
	env, err := setup()
	pr.tr.record("set-up", "topo", id, t0, time.Now())
	if err != nil {
		return res, fmt.Errorf("probe %s: set-up: %w", name, err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	ev0 := env.Executed()
	t1 := time.Now()
	err = run(env)
	t2 := time.Now()
	pr.tr.record("run", layer, id, t1, t2)
	runtime.ReadMemStats(&ms)
	res = probeResult{wall: t2.Sub(t1), events: env.Executed() - ev0, mallocs: ms.Mallocs - m0}
	t3 := time.Now()
	env.Shutdown()
	pr.tr.record("shutdown", "sim", id, t3, time.Now())
	if err != nil {
		return res, fmt.Errorf("probe %s: %w", name, err)
	}
	return res, nil
}

// build returns a set-up function that builds the named preset on a fresh
// environment, attaching plan first when it is non-nil.
func build(t topo.Topology, plan *fault.Plan, nw **topo.Network) func() (*sim.Env, error) {
	return func() (*sim.Env, error) {
		env := sim.NewEnv()
		if plan != nil {
			if err := fault.AttachPlan(env, plan); err != nil {
				return nil, err
			}
		}
		n, err := topo.Build(env, t)
		*nw = n
		return env, err
	}
}

// pairNodes returns the first node of sites A and B of a paper testbed.
func pairNodes(nw *topo.Network) (*topo.Node, *topo.Node) {
	return nw.Site("A").Nodes[0], nw.Site("B").Nodes[0]
}

const (
	rcMsgBytes = 64 << 10
	rcMsgs     = 6000
)

// runProbes measures every per-layer probe.
func runProbes(pr prober, seed uint64, m metricSet) error {
	var nw *topo.Network
	paper := func(nodes int, delay sim.Time) topo.Topology { return mustPreset("paper", nodes, delay) }
	newEnv := func() (*sim.Env, error) { return sim.NewEnv(), nil }

	// sim: the bare schedule+dispatch cycle at a deep and a shallow heap,
	// and the process park/wake round trip.
	for _, c := range []struct {
		name    string
		pending int
	}{{"sim.schedule_deep", 16384}, {"sim.schedule_shallow", 64}} {
		pending := c.pending
		r, err := pr.probe(c.name, "sim", newEnv, func(env *sim.Env) error {
			scheduleChurn(env, pending, 3_000_000)
			return nil
		})
		if err != nil {
			return err
		}
		m[c.name+".ns_per_event"] = r.nsPerEvent()
	}
	const switches = 1_000_000
	r, err := pr.probe("sim.handoff", "sim", newEnv, func(env *sim.Env) error {
		env.Go("sleeper", func(p *sim.Proc) {
			for i := 0; i < switches; i++ {
				p.Sleep(sim.Nanosecond)
			}
		})
		env.Run()
		return nil
	})
	if err != nil {
		return err
	}
	m["sim.handoff.ns_per_switch"] = perUnit(r.wall, switches)

	// ib: RC streaming at 10 ms with a sampler watching the heap depth.
	peak := 0
	r, err = pr.probe("ib.rc_stream", "ib", build(paper(1, 10*sim.Millisecond), nil, &nw), func(env *sim.Env) error {
		env.SetSampler(sim.Millisecond, func(sim.Time) { peak = max(peak, env.Pending()) })
		a, b := pairNodes(nw)
		perftest.StreamRC(env, a.HCA, b.HCA, rcMsgBytes, rcMsgs, ib.QPConfig{})
		return nil
	})
	if err != nil {
		return err
	}
	m["ib.rc_stream.ns_per_event"] = r.nsPerEvent()
	m["ib.rc_stream.allocs_per_op"] = float64(r.mallocs) / rcMsgs
	m["sim.peak_pending"] = float64(peak)

	// telemetry: the same stream at zero delay with nothing attached.
	r, err = pr.probe("telemetry.off", "ib", build(paper(1, 0), nil, &nw), func(env *sim.Env) error {
		a, b := pairNodes(nw)
		perftest.BandwidthRC(env, a.HCA, b.HCA, rcMsgBytes, rcMsgs, 0)
		return nil
	})
	if err != nil {
		return err
	}
	m["telemetry.off.allocs_per_op"] = float64(r.mallocs) / rcMsgs

	r, err = pr.probe("ib.ud_stream", "ib", build(paper(1, sim.Millisecond), nil, &nw), func(env *sim.Env) error {
		a, b := pairNodes(nw)
		perftest.BandwidthUD(env, a.HCA, b.HCA, ib.MaxUDPayload, 40000)
		return nil
	})
	if err != nil {
		return err
	}
	m["ib.ud_stream.ns_per_event"] = r.nsPerEvent()

	// ib: RC across a WAN port narrowed to a quarter of SDR and bounded at
	// 1 MB with ECN marking, deep enough that the RC window never overflows.
	queued := paper(1, sim.Millisecond).WithQueue(1<<20, true, false)
	queued.Links[0].Rate = ib.SDR / 4
	r, err = pr.probe("ib.queued_stream", "ib", build(queued, nil, &nw), func(env *sim.Env) error {
		a, b := pairNodes(nw)
		perftest.StreamRC(env, a.HCA, b.HCA, rcMsgBytes, rcMsgs, ib.QPConfig{})
		return nil
	})
	if err != nil {
		return err
	}
	m["ib.queued_stream.ns_per_event"] = r.nsPerEvent()

	failed := 0
	_, err = pr.probe("ib.lossless_rc", "ib", newEnv, func(env *sim.Env) error {
		failed = losslessRC(env)
		return nil
	})
	if err != nil {
		return err
	}
	m["ib.lossless_rc.failed_ops"] = float64(failed)

	// tcpsim: four streams over IPoIB-UD at 1 ms.
	var segs int64
	r, err = pr.probe("tcpsim.stream", "tcpsim", build(paper(1, sim.Millisecond), nil, &nw), func(env *sim.Env) error {
		var err error
		segs, err = tcpStreams(env, nw, 4, 150*sim.Millisecond)
		return err
	})
	if err != nil {
		return err
	}
	m["tcpsim.stream.ns_per_segment"] = perUnit(r.wall, segs)
	m["tcpsim.allocs_per_segment"] = float64(r.mallocs) / float64(max(segs, 1))

	// mpi: osu_bw with 1 MB messages at 1 ms, and the hierarchical
	// broadcast on mesh4.
	r, err = pr.probe("mpi.bw", "mpi", build(paper(1, sim.Millisecond), nil, &nw), func(env *sim.Env) error {
		a, b := pairNodes(nw)
		mpi.Bandwidth(mpi.NewWorld(env, []*topo.Node{a, b}, mpi.Config{}), 1<<20, 12)
		return nil
	})
	if err != nil {
		return err
	}
	m["mpi.bw.ns_per_event"] = r.nsPerEvent()

	const bcasts = 160
	r, err = pr.probe("mpi.bcast_hier", "mpi", build(mustPreset("mesh4", 2, sim.Millisecond), nil, &nw), func(env *sim.Env) error {
		mpi.BcastLatency(mpi.NewWorld(env, nw.Nodes(), mpi.Config{}), 256<<10, bcasts, true)
		return nil
	})
	if err != nil {
		return err
	}
	m["mpi.bcast_hier.ns_per_op"] = perUnit(r.wall, bcasts)

	// nas: one class-W fig12 kernel on 8+8 nodes at 1 ms.
	r, err = pr.probe("nas.kernel", "nas", build(paper(8, sim.Millisecond), nil, &nw), func(env *sim.Env) error {
		nas.RunClass(mpi.NewWorld(env, nw.Nodes(), mpi.Config{}), nas.CG, "W")
		return nil
	})
	if err != nil {
		return err
	}
	m["nas.kernel.ns_per_event"] = r.nsPerEvent()

	// nfs: a fig13 IOzone point over each transport at 1 ms.
	for _, c := range []struct {
		name string
		rdma bool
	}{{"nfs.iozone_rdma", true}, {"nfs.iozone_ipoib", false}} {
		rdma := c.rdma
		r, err = pr.probe(c.name, "nfs", build(paper(1, sim.Millisecond), nil, &nw), func(env *sim.Env) error {
			return iozone(env, nw, rdma)
		})
		if err != nil {
			return err
		}
		m[c.name+".ns_per_event"] = r.nsPerEvent()
	}

	// fault: the RC stream under a seeded wan-loss=1e-4 plan.
	plan := &fault.Plan{Seed: seed, WANLoss: lossyWANLoss}
	r, err = pr.probe("fault.rc_stream_lossy", "fault", build(paper(1, 10*sim.Millisecond), plan, &nw), func(env *sim.Env) error {
		a, b := pairNodes(nw)
		perftest.StreamRC(env, a.HCA, b.HCA, rcMsgBytes, rcMsgs, ib.QPConfig{RetryLimit: 30})
		return nil
	})
	if err != nil {
		return err
	}
	m["fault.rc_stream_lossy.ns_per_event"] = r.nsPerEvent()

	// topo: testbed construction alone, median of repeated builds.
	for _, c := range []struct {
		name string
		t    topo.Topology
	}{{"topo.build_ms.paper", paper(0, sim.Millisecond)}, {"topo.build_ms.mesh4", mustPreset("mesh4", 0, sim.Millisecond)}} {
		ms, err := buildTimes(pr, c.name, c.t)
		if err != nil {
			return err
		}
		m[c.name] = ms
	}
	return nil
}

// scheduleChurn keeps pending self-rescheduling callbacks in the heap until
// total have been scheduled. Delays come from a fixed LCG, so heap order is
// not FIFO and every run schedules the same sequence.
func scheduleChurn(env *sim.Env, pending int, total int64) {
	scheduled := int64(0)
	lcg := uint64(1)
	var tick func(any)
	tick = func(any) {
		if scheduled < total {
			scheduled++
			lcg = lcg*6364136223846793005 + 1442695040888963407
			env.AtArg(sim.Time(1+lcg>>54), tick, nil)
		}
	}
	for i := 0; i < pending; i++ {
		scheduled++
		env.AtArg(sim.Time(i), tick, nil)
	}
	env.Run()
}

// losslessRC streams four 3-MTU-plus messages over RC across a lossless
// port bounded just above two MTU-sized packets, and returns how many of
// the eight work requests (four sends, four receives) did not complete OK.
// A lossless link must never lose a packet, so any failure is a defect.
func losslessRC(env *sim.Env) int {
	f := ib.NewFabric(env)
	a, b := f.AddHCA("a"), f.AddHCA("b")
	lk := f.Connect(a, b, ib.SDR, ib.DefaultCableDelay)
	f.Finalize()
	if err := lk.ConfigureQueue(ib.QueueConfig{QueueBytes: 2*(ib.MTU+128) + 300, Lossless: true}); err != nil {
		panic(err)
	}
	qa, qb := ib.CreateRCPair(a, b, nil, nil, ib.QPConfig{
		RetryLimit: 3, RetryTimeout: 50 * sim.Millisecond, MaxInflight: 8,
	})
	const msgs = 4
	ok := 0
	poll := func(p *sim.Proc, q *ib.QP) {
		for i := 0; i < msgs; i++ {
			if q.CQ().Poll(p).Status == ib.StatusOK {
				ok++
			}
		}
	}
	env.Go("recv", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			qb.PostRecv(ib.RecvWR{})
		}
		poll(p, qb)
	})
	env.Go("send", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			qa.PostSend(ib.SendWR{Op: ib.OpSend, Len: 3*ib.MTU + 100})
		}
		poll(p, qa)
	})
	env.RunUntil(10 * sim.Second)
	return 2*msgs - ok
}

// tcpStreams runs streams one-way TCP flows over IPoIB-UD between the
// paper testbed's two nodes for dur of virtual time and returns the
// segments both stacks sent.
func tcpStreams(env *sim.Env, nw *topo.Network, streams int, dur sim.Time) (int64, error) {
	a, b := pairNodes(nw)
	net := ipoib.NewNetwork()
	sa := tcpsim.NewStack(net.Attach(a.HCA, ipoib.Datagram, 0), tcpsim.Config{})
	sb := tcpsim.NewStack(net.Attach(b.HCA, ipoib.Datagram, 0), tcpsim.Config{})
	var firstErr error
	for i := 0; i < streams; i++ {
		port := 6000 + i
		ln := sb.Listen(port)
		env.Go("srv", func(p *sim.Proc) { ln.Accept(p) })
		env.Go("cli", func(p *sim.Proc) {
			c, err := sa.Dial(p, sb.Addr(), port)
			for err == nil {
				err = c.WriteSynthetic(p, 2<<20)
			}
			if firstErr == nil {
				firstErr = err
			}
		})
	}
	env.RunUntil(dur)
	if firstErr != nil {
		return 0, fmt.Errorf("tcp stream: %w", firstErr)
	}
	return sa.Stats().TxSegments + sb.Stats().TxSegments, nil
}

// iozone runs one fig13 point, with a 64 MB file where fig13 at -quick
// reads 16 MB: 8 threads reading in 256 KB records, over NFS/RDMA or NFS
// over IPoIB-RC.
func iozone(env *sim.Env, nw *topo.Network, rdma bool) error {
	client, server := pairNodes(nw)
	var srv *nfs.Server
	var cl *nfs.Client
	if rdma {
		srv, cl = nfs.MountRDMA(server, client)
	} else {
		var err error
		if srv, cl, err = nfs.MountTCP(env, server, client, ipoib.Connected); err != nil {
			return err
		}
	}
	const size = 64 << 20
	srv.AddSyntheticFile("f", size)
	nfs.IOzone(env, cl, "f", nfs.IOzoneConfig{FileSize: size, RecordSize: 256 << 10, Threads: 8})
	return nil
}

// buildTimes returns the median wall time of repeated topo.Build calls, in
// milliseconds, under one span.
func buildTimes(pr prober, name string, t topo.Topology) (float64, error) {
	id, end := pr.tr.begin("probe "+name, "driver", pr.parent)
	defer end()
	var ms []float64
	for i := 0; i < 15; i++ {
		env := sim.NewEnv()
		t0 := time.Now()
		_, err := topo.Build(env, t)
		t1 := time.Now()
		pr.tr.record("build", "topo", id, t0, t1)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ms = append(ms, float64(t1.Sub(t0).Nanoseconds())/1e6)
		env.Shutdown()
	}
	return median(ms), nil
}
