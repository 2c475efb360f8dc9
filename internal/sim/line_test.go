package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// dispatchRec is one logged dispatch: the clock, which handler ran, and
// its argument.
type dispatchRec struct {
	now Time
	h   int
	arg int
}

// lineProgram is a randomized schedule that can run either through Lines
// or through plain AtArg/At. Every follow-up schedule is drawn from a PRNG
// consumed in dispatch order, so a Line run and a plain run of the same
// seed make the same calls, and log the same records, exactly when the
// kernel dispatches both in the same order.
type lineProgram struct {
	env      *Env
	useLines bool
	rng      *rand.Rand
	lines    []*Line
	bases    []Time // each line's fixed delay
	handlers []func(any)
	log      []dispatchRec
	budget   int // follow-up schedules left
	nextArg  int
	stopAt   int // Stop when the log reaches this length (0 = never)

	peers []*lineProgram // other shards' programs (partitioned worlds)
	cross Time           // cross-shard delay floor (the lookahead)

	// Line runs only: how often each insertion case was taken.
	appends, inserts, beforeHead int
}

func newLineProgram(env *Env, useLines bool, seed int64, budget int) *lineProgram {
	p := &lineProgram{env: env, useLines: useLines, rng: rand.New(rand.NewSource(seed)), budget: budget}
	for _, base := range []Time{10 * Millisecond, 500 * Nanosecond, 3 * Microsecond, 100 * Nanosecond} {
		p.bases = append(p.bases, base)
		p.lines = append(p.lines, env.NewLine())
	}
	for h := 0; h < 3; h++ {
		h := h
		p.handlers = append(p.handlers, func(v any) { p.fire(h, v.(int)) })
	}
	return p
}

// fire is every handler's body: log, maybe stop, maybe schedule more.
func (p *lineProgram) fire(h, arg int) {
	p.log = append(p.log, dispatchRec{now: p.env.Now(), h: h, arg: arg})
	if p.stopAt > 0 && len(p.log) == p.stopAt {
		p.env.Stop()
	}
	for n := p.rng.Intn(4); n > 0 && p.budget > 0; n-- {
		p.budget--
		if len(p.peers) > 0 && p.rng.Intn(4) == 0 {
			q := p.peers[p.rng.Intn(len(p.peers))]
			delay := p.cross + Time(p.rng.Int63n(int64(p.cross)))
			p.env.AtArgOn(q.env, delay, q.handlers[p.rng.Intn(len(q.handlers))], p.takeArg())
			continue
		}
		p.schedule()
	}
}

func (p *lineProgram) takeArg() int {
	p.nextArg++
	return p.nextArg
}

// schedule draws one event: a line, a delay that is usually the line's
// fixed delay (an append) but sometimes shorter (an out-of-order insert,
// or an entry earlier than the line's head) or zero, and whether it goes
// through the func(any) or the func() entry point. About one in eight
// bypasses the lines even in a Line run, so plain heap entries interleave
// with line entries.
func (p *lineProgram) schedule() {
	li := p.rng.Intn(len(p.lines))
	base := p.bases[li]
	var delay Time
	switch r := p.rng.Intn(10); {
	case r < 6:
		delay = base
	case r < 8:
		delay = Time(p.rng.Int63n(int64(base)))
	case r < 9:
		delay = 0
	default:
		delay = 2 * base
	}
	h := p.rng.Intn(len(p.handlers))
	plain := p.rng.Intn(8) == 0
	arg := p.takeArg()
	if !p.useLines || plain {
		if h == 0 {
			p.env.At(delay, func() { p.fire(0, arg) })
		} else {
			p.env.AtArg(delay, p.handlers[h], arg)
		}
		return
	}
	l := p.lines[li]
	at := p.env.Now() + delay
	switch {
	case l.q.Len() == 0 || at >= l.q.At(l.q.Len()-1).at:
		p.appends++
	case at >= l.q.Front().at:
		p.inserts++
	default:
		p.beforeHead++
	}
	if h == 0 {
		l.At(delay, func() { p.fire(0, arg) })
	} else {
		l.AtArg(delay, p.handlers[h], arg)
	}
}

// state is what the two runs must agree on at every checkpoint.
type lineState struct {
	Now      Time
	Executed int64
	Pending  int
	Log      int
}

func (p *lineProgram) state() lineState {
	return lineState{p.env.Now(), p.env.Executed(), p.env.Pending(), len(p.log)}
}

// TestLineMatchesHeap is the kernel's equivalence property: a randomized
// schedule run through Lines dispatches exactly what the same schedule run
// through plain AtArg/At does — the same (now, handler, arg) sequence,
// Executed count, clock and Pending count — across Step, a RunUntil
// horizon, a Stop and resumed Run, and a Shutdown whose deferred cleanup
// schedules onto a line.
func TestLineMatchesHeap(t *testing.T) {
	var appends, inserts, beforeHead int
	for seed := int64(1); seed <= 25; seed++ {
		var runs [2]*lineProgram
		var states [2][]lineState
		for i, useLines := range []bool{false, true} {
			env := NewEnv()
			p := newLineProgram(env, useLines, seed, 3000)
			p.stopAt = 1500
			for k := 0; k < 20; k++ {
				p.schedule()
			}
			// Procs sleeping between line schedules; each parks for good on
			// an event nobody triggers, and its kill schedules one more
			// line entry for Pending to count.
			for k := 0; k < 3; k++ {
				k := k
				env.Go(fmt.Sprintf("p%d", k), func(pr *Proc) {
					defer func() {
						if useLines {
							p.lines[k].AtArg(Microsecond, p.handlers[1], -1-k)
						} else {
							env.AtArg(Microsecond, p.handlers[1], -1-k)
						}
					}()
					for j := 0; j < 40; j++ {
						pr.Sleep(Time(k+1) * 700 * Nanosecond)
						p.log = append(p.log, dispatchRec{now: env.Now(), h: 10 + k, arg: j})
						p.schedule()
					}
					pr.Wait(env.NewEvent())
				})
			}
			snap := func() { states[i] = append(states[i], p.state()) }
			for k := 0; k < 200 && env.Step(); k++ {
				snap()
			}
			env.RunUntil(env.Now() + 50*Microsecond)
			snap()
			env.Run() // stops at stopAt
			snap()
			env.Run()
			snap()
			env.Shutdown()
			snap()
			runs[i] = p
		}
		plain, lined := runs[0], runs[1]
		if !reflect.DeepEqual(states[0], states[1]) {
			t.Fatalf("seed %d: checkpoint states differ\nplain %v\nlines %v", seed, states[0], states[1])
		}
		if !reflect.DeepEqual(plain.log, lined.log) {
			t.Fatalf("seed %d: dispatch logs differ (%d vs %d records)", seed, len(plain.log), len(lined.log))
		}
		if plain.stopAt > len(plain.log) {
			t.Fatalf("seed %d: the run ended before the Stop point", seed)
		}
		if st := states[1][len(states[1])-1]; st.Pending != 3 {
			t.Fatalf("seed %d: Pending after Shutdown = %d, want the 3 line entries scheduled by killed procs", seed, st.Pending)
		}
		appends += lined.appends
		inserts += lined.inserts
		beforeHead += lined.beforeHead
	}
	if appends == 0 || inserts == 0 || beforeHead == 0 {
		t.Fatalf("schedule coverage: %d appends, %d inserts, %d before-head; every case must occur", appends, inserts, beforeHead)
	}
}

// TestLineMatchesHeapSharded runs the same property on a two-shard world:
// each shard owns its Lines and PRNG, and handlers deposit AtArgOn traffic
// on the other shard. Each shard's dispatch log must match the plain run's,
// at one worker and at two.
func TestLineMatchesHeapSharded(t *testing.T) {
	const lookahead = 2 * Microsecond
	run := func(useLines bool, seed int64, workers int) ([][]dispatchRec, lineState) {
		env := NewEnv()
		env.SetShardWorkers(workers)
		views := env.Partition(2)
		env.RegisterLookahead(lookahead)
		progs := make([]*lineProgram, len(views))
		for i, v := range views {
			progs[i] = newLineProgram(v, useLines, seed*10+int64(i), 2000)
			progs[i].cross = lookahead
		}
		for i, p := range progs {
			for j, q := range progs {
				if i != j {
					p.peers = append(p.peers, q)
				}
			}
			for k := 0; k < 10; k++ {
				p.schedule()
			}
		}
		env.Run()
		logs := make([][]dispatchRec, len(progs))
		for i, p := range progs {
			logs[i] = p.log
		}
		return logs, lineState{env.Now(), env.Executed(), env.Pending(), 0}
	}
	for seed := int64(1); seed <= 10; seed++ {
		wantLogs, wantState := run(false, seed, 1)
		for _, workers := range []int{1, 2} {
			logs, st := run(true, seed, workers)
			if st != wantState {
				t.Fatalf("seed %d workers %d: state %+v, want %+v", seed, workers, st, wantState)
			}
			for i := range logs {
				if !reflect.DeepEqual(logs[i], wantLogs[i]) {
					t.Fatalf("seed %d workers %d: shard %d dispatch log differs", seed, workers, i)
				}
			}
		}
	}
}

// TestLineHeapDepth is the heap-depth regression guard for the paper's
// long-distance runs: ten thousand messages, each arming a 500 ms
// retransmission timer and crossing a 10 ms delay, keep tens of thousands
// of entries pending but only one heap slot per line and per live process.
func TestLineHeapDepth(t *testing.T) {
	const msgs = 10000
	env := NewEnv()
	wire, retries := env.NewLine(), env.NewLine()
	const lines = 2
	delivered, expired := 0, 0
	deliver := func(any) { delivered++ }
	expire := func(any) { expired++ }
	maxHeap, maxPending := 0, 0
	observe := func() {
		if n := env.queue.len(); n > maxHeap {
			maxHeap = n
		}
		if n := env.Pending(); n > maxPending {
			maxPending = n
		}
	}
	env.Go("sender", func(p *Proc) {
		for i := 0; i < msgs; i++ {
			retries.AtArg(500*Millisecond, expire, nil)
			wire.AtArg(10*Millisecond, deliver, nil)
			observe()
			p.Sleep(Microsecond)
		}
	})
	env.Run()
	if delivered != msgs || expired != msgs {
		t.Fatalf("delivered %d, expired %d; want %d each", delivered, expired, msgs)
	}
	if bound := lines + 1; maxHeap > bound {
		t.Fatalf("heap depth peaked at %d, want <= %d (lines + live procs)", maxHeap, bound)
	}
	if maxPending < msgs {
		t.Fatalf("peak Pending %d < %d: the line entries were not counted", maxPending, msgs)
	}
}
