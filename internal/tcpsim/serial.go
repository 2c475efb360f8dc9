package tcpsim

import "repro/internal/sim"

// serialCtx is one serialized per-segment service context: the transmit or
// the receive softirq of a 2008-era kernel. Segments are served one at a
// time in arrival order. start charges a segment's processing and returns
// its service time; once that time has passed, finish hands the segment
// on (to the interface, or to its connection).
//
// The context never blocks on anything but its own FIFO and a fixed
// service time, so it runs as scheduler callbacks rather than as a
// process. Each segment takes the same four event slots, at the same
// (at, seq) positions, as the process loop it replaces (Queue.Get, then
// Sleep):
//
//  1. a put to an idle context schedules a wake (where Get's trigger
//     scheduled the resume);
//  2. the wake pops the segment, calls start and schedules the service
//     timer (where Sleep armed its trigger);
//  3. the timer schedules a zero-delay completion hop (where the trigger
//     scheduled the resume);
//  4. the hop calls finish, then serves the next segment or goes idle.
//
// Construction schedules one wake, where Env.Go scheduled the process's
// first activation. The callbacks are cached as func(any) values and the
// segment rides as the argument, so steady-state service allocates
// nothing.
type serialCtx struct {
	env    *sim.Env
	items  sim.Ring[*segment]
	idle   bool
	start  func(*segment) sim.Time
	finish func(*segment)
	// Cached callbacks (method values allocate when taken).
	serveFn, timerFn, hopFn func(any)
}

// newSerialCtx creates a context and schedules its first wake.
func newSerialCtx(env *sim.Env, start func(*segment) sim.Time, finish func(*segment)) *serialCtx {
	x := &serialCtx{env: env, start: start, finish: finish}
	x.serveFn, x.timerFn, x.hopFn = x.serve, x.timer, x.hop
	env.AtArg(0, x.serveFn, nil)
	return x
}

// put queues seg for service.
func (x *serialCtx) put(seg *segment) {
	x.items.Push(seg)
	if x.idle {
		x.idle = false
		x.env.AtArg(0, x.serveFn, nil)
	}
}

// serve starts the head segment's service, or idles on an empty FIFO. A
// wake runs it, and so does the hop that finishes the previous segment.
func (x *serialCtx) serve(any) {
	if x.items.Len() == 0 {
		x.idle = true
		return
	}
	seg := x.items.Pop()
	x.env.AtArg(x.start(seg), x.timerFn, seg)
}

func (x *serialCtx) timer(seg any) { x.env.AtArg(0, x.hopFn, seg) }

func (x *serialCtx) hop(seg any) {
	x.finish(seg.(*segment))
	x.serve(nil)
}
