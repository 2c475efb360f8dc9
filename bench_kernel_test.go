package repro

// DES-kernel microbenchmarks: the four hot paths every experiment in the
// paper reproduction is wall-time-bound by. Each reports, besides ns/op
// and allocs/op, the machine-independent events/op (heap entries
// dispatched per benchmark op, via Env.Executed()) and the headline
// events/s rate. Before/after numbers for the allocation-free kernel are
// recorded in BENCH_kernel.json; regenerate with
//
//	go test -run='^$' -bench=Kernel -benchmem .
//
// CI runs the same selector at -benchtime=50x as a smoke test so these can
// never silently rot.

import (
	"testing"

	"repro/internal/ipoib"
	"repro/internal/perftest"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// reportKernelRate attaches the events/s and events/op metrics.
func reportKernelRate(b *testing.B, events int64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/s")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkKernelSchedule measures the bare schedule+dispatch cycle: a
// fixed fan of self-rescheduling timers keeps the heap at a realistic
// depth (64 pending entries) while b.N entries pass through it.
func BenchmarkKernelSchedule(b *testing.B) {
	env := sim.NewEnv()
	scheduled := 0
	var tick func()
	tick = func() {
		if scheduled < b.N {
			scheduled++
			env.At(sim.Microsecond, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	seed := 64
	if seed > b.N {
		seed = b.N
	}
	for i := 0; i < seed; i++ {
		scheduled++
		env.At(sim.Time(i), tick)
	}
	env.Run()
	b.StopTimer()
	reportKernelRate(b, env.Executed())
}

// BenchmarkKernelProcHandoff measures the process path: each op is one
// Sleep — an event, a timer entry, a trigger and a scheduler->process
// handoff and back.
func BenchmarkKernelProcHandoff(b *testing.B) {
	env := sim.NewEnv()
	b.ReportAllocs()
	b.ResetTimer()
	env.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(sim.Nanosecond)
		}
	})
	env.Run()
	b.StopTimer()
	env.Shutdown()
	reportKernelRate(b, env.Executed())
}

// BenchmarkKernelQueue measures the blocking producer/consumer channel: a
// bounded queue forces both put-side and get-side waits, as MPI progress
// engines and application processes do.
func BenchmarkKernelQueue(b *testing.B) {
	env := sim.NewEnv()
	q := sim.NewQueue[int](env, 16)
	b.ReportAllocs()
	b.ResetTimer()
	env.Go("producer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(p, i)
		}
	})
	env.Go("consumer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			q.Get(p)
		}
	})
	env.Run()
	b.StopTimer()
	env.Shutdown()
	reportKernelRate(b, env.Executed())
}

// BenchmarkKernelRCStream measures the full simulation hot path end to
// end: b.N 64 KB messages streamed over an RC QP through the two-cluster
// testbed — packetization at the MTU, switch forwarding, link
// serialization, reassembly, acks and completions.
func BenchmarkKernelRCStream(b *testing.B) {
	env, tb := pair(0)
	b.ReportAllocs()
	b.ResetTimer()
	perftest.BandwidthRC(env, tb.A[0].HCA, tb.B[0].HCA, 64<<10, b.N, 0)
	b.StopTimer()
	reportKernelRate(b, env.Executed())
}

// BenchmarkKernelRCStreamTelemetryOff is the telemetry regression guard:
// the same RC stream as BenchmarkKernelRCStream on an environment with no
// telemetry attached (nil registry, nil recorder). Every instrumentation
// site in the fabric sits behind a single nil check, so this must match
// the uninstrumented baseline recorded in BENCH_kernel.json — the
// disabled observability path adds zero allocations to the hot path.
func BenchmarkKernelRCStreamTelemetryOff(b *testing.B) {
	env, tb := pair(0)
	b.ReportAllocs()
	b.ResetTimer()
	perftest.BandwidthRC(env, tb.A[0].HCA, tb.B[0].HCA, 64<<10, b.N, 0)
	b.StopTimer()
	reportKernelRate(b, env.Executed())
}

// TestKernelRCStreamTelemetryOffAllocs enforces the disabled-path
// allocation budget as a plain test: the end-to-end RC stream must stay at
// the seed's <= 2 allocs per 64 KB message with telemetry off.
func TestKernelRCStreamTelemetryOffAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full benchmark")
	}
	r := testing.Benchmark(BenchmarkKernelRCStreamTelemetryOff)
	if a := r.AllocsPerOp(); a > 2 {
		t.Errorf("RC stream with telemetry disabled: %d allocs/op, want <= 2", a)
	}
}

// TestKernelRCStreamQueuesDisabledAllocs pins the congestion refactor's
// disabled path: with no QueueConfig on any link (the default), the
// bounded-queue support compiled into the port transmit path must add
// zero allocations — the end-to-end RC stream holds the seed's <= 2
// allocs per 64 KB message recorded in BENCH_kernel.json.
func TestKernelRCStreamQueuesDisabledAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full benchmark")
	}
	r := testing.Benchmark(BenchmarkKernelRCStream)
	if a := r.AllocsPerOp(); a > 2 {
		t.Errorf("RC stream with queues disabled: %d allocs/op, want <= 2", a)
	}
}

// BenchmarkKernelTCPStream measures the per-packet host stack path: four
// TCP streams over IPoIB-UD across a 10 us WAN, each op 64 KB of synthetic
// payload (16 KB per stream), about 33 segments through the sender's
// transmit context, the receiver's IPoIB receive engine and its receive
// context, plus the acks coming back the same way. Those three contexts
// are scheduler callbacks, so no process switch is paid per packet.
func BenchmarkKernelTCPStream(b *testing.B) {
	const streams, chunk = 4, 16 << 10
	env, tb := pair(sim.Micros(10))
	net := ipoib.NewNetwork()
	sa := tcpsim.NewStack(net.Attach(tb.A[0].HCA, ipoib.Datagram, 0), tcpsim.Config{})
	sb := tcpsim.NewStack(net.Attach(tb.B[0].HCA, ipoib.Datagram, 0), tcpsim.Config{})
	conns := make([]*tcpsim.Conn, streams)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range conns {
		i, port := i, 5000+i
		ln := sb.Listen(port)
		env.Go("srv", func(p *sim.Proc) { conns[i], _ = ln.Accept(p) })
		env.Go("cli", func(p *sim.Proc) {
			c, err := sa.Dial(p, sb.Addr(), port)
			for n := 0; n < b.N && err == nil; n++ {
				err = c.WriteSynthetic(p, chunk)
			}
			if err != nil {
				b.Error(err)
			}
		})
	}
	env.Run()
	b.StopTimer()
	for i, c := range conns {
		if c == nil || c.Delivered() != int64(b.N)*chunk {
			b.Fatalf("stream %d did not deliver %d bytes", i, b.N*chunk)
		}
	}
	env.Shutdown()
	reportKernelRate(b, env.Executed())
}

// BenchmarkKernelStaleTimers measures the timer pattern of RC over a long
// WAN: each op is one message that crosses a 10 ms wire, is acknowledged
// over the 10 ms return path, and arms a 500 ms retransmission timer that
// fires long after the ack, as a no-op. A message leaves every microsecond,
// so a long run keeps up to 500k timers pending. Wire, acks and timers are
// each a sim.Line — FIFO by construction, so the handlers take their
// message from a counter rather than an argument — and the heap holds a
// handful of entries however many timers are armed.
func BenchmarkKernelStaleTimers(b *testing.B) {
	env := sim.NewEnv()
	stage, wire, acks, retries := env.NewLine(), env.NewLine(), env.NewLine(), env.NewLine()
	acked := make([]bool, b.N)
	sent, delivered, nacked, expired, retransmits := 0, 0, 0, 0, 0
	ack := func(any) {
		acked[nacked] = true
		nacked++
	}
	deliver := func(any) {
		delivered++
		acks.AtArg(10*sim.Millisecond, ack, nil)
	}
	expire := func(any) {
		if !acked[expired] {
			retransmits++
		}
		expired++
	}
	var send func(any)
	send = func(any) {
		wire.AtArg(10*sim.Millisecond, deliver, nil)
		retries.AtArg(500*sim.Millisecond, expire, nil)
		if sent++; sent < b.N {
			stage.AtArg(sim.Microsecond, send, nil)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	stage.AtArg(0, send, nil)
	env.Run()
	b.StopTimer()
	if delivered != b.N || expired != b.N || retransmits != 0 {
		b.Fatalf("delivered %d, expired %d, retransmits %d; want %d, %d, 0", delivered, expired, retransmits, b.N, b.N)
	}
	reportKernelRate(b, env.Executed())
}
