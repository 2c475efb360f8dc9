package tcpsim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// procSerial is the reference for serialCtx: the process loop the stack's
// transmit and receive contexts used to run (Queue.Get, Sleep for the
// service time, hand the segment on). It returns the put function.
func procSerial(env *sim.Env, start func(*segment) sim.Time, finish func(*segment)) func(*segment) {
	q := sim.NewQueue[*segment](env, 0)
	env.Go("serial-ref", func(p *sim.Proc) {
		for {
			seg := q.Get(p)
			p.Sleep(start(seg))
			finish(seg)
		}
	})
	return func(seg *segment) { q.TryPut(seg) }
}

// serialRec is one logged step: an arrival, a service start or a finish.
type serialRec struct {
	now  sim.Time
	kind byte
	id   int
}

// serialWorkload is a randomized arrival pattern, fixed up front so both
// implementations see the same one: arrival times on a coarse grid (many
// same-instant arrivals, many while the context is busy), per-segment
// service times from the same grid (zero included), and segments whose
// finish puts a follow-up segment, at once or after a grid delay, or
// schedules unrelated work at the same instant. Each arrival also
// schedules an unrelated marker a few grid steps later; an arrival while
// busy puts its marker on the instant a service timer fires, with a
// sequence number between the timer's and its completion hop's.
type serialWorkload struct {
	arrive  []sim.Time
	service []sim.Time
	reput   []sim.Time // finish puts segment id+n after this delay (<0: none)
	echo    []bool     // finish schedules a zero-delay unrelated event
	mark    []sim.Time // arrival schedules an unrelated event after this delay
}

func newSerialWorkload(seed int64, n int) serialWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := serialWorkload{
		arrive:  make([]sim.Time, n),
		service: make([]sim.Time, 2*n),
		reput:   make([]sim.Time, n),
		echo:    make([]bool, 2*n),
		mark:    make([]sim.Time, 2*n),
	}
	const grid = 100 * sim.Nanosecond
	for i := range w.arrive {
		w.arrive[i] = sim.Time(rng.Intn(n/2)) * grid
		w.reput[i] = sim.Time(rng.Intn(6)-3) * grid
	}
	for i := range w.service {
		w.service[i] = sim.Time(rng.Intn(4)) * grid
		w.echo[i] = rng.Intn(3) == 0
		w.mark[i] = sim.Time(1+rng.Intn(3)) * grid
	}
	return w
}

// run drives the workload through the callback context or the reference
// process loop and returns the step log and Env.Executed().
func (w serialWorkload) run(useProc bool) ([]serialRec, int64) {
	env := sim.NewEnv()
	n := len(w.arrive)
	segs := make([]*segment, 2*n)
	for i := range segs {
		segs[i] = &segment{length: i}
	}
	var log []serialRec
	rec := func(kind byte, id int) { log = append(log, serialRec{env.Now(), kind, id}) }
	var put func(*segment)
	arrive := func(seg *segment) {
		id := seg.length
		rec('a', id)
		env.At(w.mark[id], func() { rec('m', id) })
		put(seg)
	}
	start := func(seg *segment) sim.Time {
		rec('s', seg.length)
		return w.service[seg.length]
	}
	finish := func(seg *segment) {
		id := seg.length
		rec('f', id)
		if id < n {
			switch d := w.reput[id]; {
			case d == 0:
				put(segs[id+n])
			case d > 0:
				next := segs[id+n]
				env.At(d, func() { arrive(next) })
			}
		}
		if w.echo[id] {
			env.At(0, func() { rec('e', id) })
		}
	}
	if useProc {
		put = procSerial(env, start, finish)
	} else {
		put = newSerialCtx(env, start, finish).put
	}
	for i, at := range w.arrive {
		seg := segs[i]
		env.At(at, func() { arrive(seg) })
	}
	env.Run()
	env.Shutdown()
	return log, env.Executed()
}

// TestSerialCtxMatchesProcLoop pins serialCtx's footprint claim: on
// randomized arrivals, every step happens at the same virtual time and in
// the same order relative to all other events as under the process loop
// it replaced, and the run dispatches exactly as many events.
func TestSerialCtxMatchesProcLoop(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		w := newSerialWorkload(seed, 200)
		refLog, refExec := w.run(true)
		log, exec := w.run(false)
		if !reflect.DeepEqual(refLog, log) {
			for i := range refLog {
				if i >= len(log) || refLog[i] != log[i] {
					t.Fatalf("seed %d: step %d differs: proc loop %+v, context %+v", seed, i, refLog[i], log[min(i, len(log)-1)])
				}
			}
			t.Fatalf("seed %d: context logged %d steps, proc loop %d", seed, len(log), len(refLog))
		}
		if exec != refExec {
			t.Fatalf("seed %d: Executed = %d, proc loop %d", seed, exec, refExec)
		}
		if finished := countKind(log, 'f'); finished != len(w.arrive)+countReputs(w) {
			t.Fatalf("seed %d: %d segments finished, want every arrival and follow-up", seed, finished)
		}
	}
}

func countKind(log []serialRec, kind byte) int {
	n := 0
	for _, r := range log {
		if r.kind == kind {
			n++
		}
	}
	return n
}

func countReputs(w serialWorkload) int {
	n := 0
	for _, d := range w.reput {
		if d >= 0 {
			n++
		}
	}
	return n
}

// TestSerialCtxAllocs is the context's allocation budget: once its ring
// and the event heap have grown, serving a segment allocates nothing.
func TestSerialCtxAllocs(t *testing.T) {
	env := sim.NewEnv()
	x := newSerialCtx(env,
		func(seg *segment) sim.Time { return segCPU(seg.length) },
		func(*segment) {})
	segs := make([]*segment, 64)
	for i := range segs {
		segs[i] = &segment{length: 1000 + i}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, seg := range segs {
			x.put(seg)
		}
		env.Run()
	})
	if allocs != 0 {
		t.Errorf("serving %d segments allocated %.1f times, want 0", len(segs), allocs)
	}
}
