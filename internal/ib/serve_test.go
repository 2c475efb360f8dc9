package ib

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// serveRec is one logged step: a post, a consumed completion or an
// unrelated event scheduled by the consumer.
type serveRec struct {
	now  sim.Time
	kind byte
	id   int
}

// serveWorkload is a randomized completion pattern, fixed up front so the
// polling process and the completion handler see the same one: posts on a
// coarse time grid (many at the same instant), and consumers that post a
// follow-up completion, while draining or after a grid delay, or schedule
// unrelated work at the same instant or later. A post-time marker landing
// on a later post's instant sits between that post and the drain it wakes.
type serveWorkload struct {
	post   []sim.Time
	repost []sim.Time // consuming id posts id+n after this delay (<0: none)
	echo   []bool     // consuming id schedules a zero-delay unrelated event
	mark   []sim.Time // posting id schedules an unrelated event after this delay
}

func newServeWorkload(seed int64, n int) serveWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := serveWorkload{post: make([]sim.Time, n), repost: make([]sim.Time, n),
		echo: make([]bool, 2*n), mark: make([]sim.Time, 2*n)}
	const grid = 100 * sim.Nanosecond
	for i := range w.post {
		w.post[i] = sim.Time(rng.Intn(n/3)) * grid
		w.repost[i] = sim.Time(rng.Intn(6)-3) * grid
	}
	for i := range w.echo {
		w.echo[i] = rng.Intn(3) == 0
		w.mark[i] = sim.Time(rng.Intn(3)) * grid
	}
	return w
}

// run drives the workload through a Serve handler or through the Poll loop
// the IPoIB receiver and the RPC/RDMA server used to run, and returns the
// step log and Env.Executed().
func (w serveWorkload) run(usePoll bool) ([]serveRec, int64) {
	env := sim.NewEnv()
	cq := NewCQ(env)
	n := len(w.post)
	var log []serveRec
	rec := func(kind byte, id int) { log = append(log, serveRec{env.Now(), kind, id}) }
	post := func(id int) {
		rec('p', id)
		env.At(w.mark[id], func() { rec('m', id) })
		cq.post(Completion{Ctx: id})
	}
	consume := func(c Completion) {
		id := c.Ctx.(int)
		rec('c', id)
		if id < n {
			switch d := w.repost[id]; {
			case d == 0:
				post(id + n)
			case d > 0:
				env.At(d, func() { post(id + n) })
			}
		}
		if w.echo[id] {
			env.At(0, func() { rec('e', id) })
		}
	}
	if usePoll {
		env.Go("poll-ref", func(p *sim.Proc) {
			for {
				consume(cq.Poll(p))
			}
		})
	} else {
		cq.Serve(consume)
	}
	for i, at := range w.post {
		i := i
		env.At(at, func() { post(i) })
	}
	env.Run()
	env.Shutdown()
	return log, env.Executed()
}

// TestCQServeMatchesPollLoop pins Serve's footprint claim: on randomized
// completion traffic, every completion is consumed at the same virtual
// time and in the same order relative to all other events as by a process
// blocked in Poll, and the run dispatches exactly as many events.
func TestCQServeMatchesPollLoop(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		w := newServeWorkload(seed, 300)
		refLog, refExec := w.run(true)
		log, exec := w.run(false)
		if !reflect.DeepEqual(refLog, log) {
			for i := range refLog {
				if i >= len(log) || refLog[i] != log[i] {
					t.Fatalf("seed %d: step %d differs: Poll loop %+v, handler %+v", seed, i, refLog[i], log[min(i, len(log)-1)])
				}
			}
			t.Fatalf("seed %d: handler logged %d steps, Poll loop %d", seed, len(log), len(refLog))
		}
		if exec != refExec {
			t.Fatalf("seed %d: Executed = %d, Poll loop %d", seed, exec, refExec)
		}
	}
}

// TestCQServeRejectsPoll: a CQ has one kind of consumer.
func TestCQServeRejectsPoll(t *testing.T) {
	env := sim.NewEnv()
	cq := NewCQ(env)
	cq.Serve(func(Completion) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Poll on a served CQ did not panic")
		}
	}()
	cq.Poll(nil)
}

// TestCQServeAllocs is the handler's allocation budget: once the ring and
// the event heap have grown, a completion costs no allocation.
func TestCQServeAllocs(t *testing.T) {
	env := sim.NewEnv()
	cq := NewCQ(env)
	consumed := 0
	cq.Serve(func(Completion) { consumed++ })
	env.Run()
	post := func(any) { cq.post(Completion{Op: OpRecv}) }
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 64; i++ {
			env.AtArg(sim.Time(i/4)*sim.Nanosecond, post, nil)
		}
		env.Run()
	})
	if allocs != 0 {
		t.Errorf("64 completions allocated %.1f times, want 0", allocs)
	}
	if consumed != 21*64 {
		t.Errorf("consumed %d completions, want %d", consumed, 21*64)
	}
}
