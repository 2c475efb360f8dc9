package sim

// Line is an ordered lane of pending callbacks on one Env, of which only
// the head sits in the event heap.
//
// Most of a network model's scheduling comes in streams whose delays are
// fixed or nearly so: a link's propagation delay, a switch's forwarding
// latency, a QP's pipeline stages, a retransmission timer armed once per
// message with the same base timeout. Each stream is almost FIFO in time,
// yet as plain heap entries its members all sit in the heap at once — on
// a 10 ms WAN the retry timers of every message sent in the last 500 ms,
// nearly all of which fire later as no-ops. A Line keeps such a stream in
// its own time-sorted ring and exposes one heap key for its head, so the
// heap holds one entry per active stream instead of one per pending event.
//
// Every line entry is stamped with the ordinary sequence number when it is
// scheduled, exactly as a heap entry would be, and a line's heap key
// carries its head's own (at, seq). Lines are sorted by (at, seq), so
// dispatch is a k-way merge of the heap and every line under one total
// order: the same order, the same Executed count and the same clock as if
// each entry had been pushed onto the heap directly. Choosing a line is a
// pure performance decision; it can never change what a simulation does.
//
// Insertion is O(1) for the common case (a time at or after the tail) and
// an insertion sort from the tail otherwise, so a line suits streams that
// are FIFO or close to it. A time earlier than the current head becomes
// the new head with a heap key of its own, and the displaced head keeps
// its key: a timer armed at the base timeout after a backed-off one costs
// one extra heap slot, not one per timer armed until the backed-off one
// fires. A Line belongs to the Env that created it and, like everything on
// that Env, must only be used from its dispatch context.
type Line struct {
	env *Env
	q   Ring[lineEntry]
	// displaced holds the seqs of entries that got a heap key as the head
	// and then lost the head to an earlier entry. Each displacer is earlier
	// than the head it displaces, so the top of the stack is the earliest
	// displaced entry: the only one that can become the head next.
	displaced []int64
}

// lineEntry is one pending line callback: only what dispatch needs, about
// half the size of a heap entry.
type lineEntry struct {
	at  Time
	seq int64
	fn  func(any)
	arg any
}

// NewLine creates an empty line on the environment.
func (e *Env) NewLine() *Line { return &Line{env: e} }

// AtArg schedules fn(arg) at the given delay from now, like Env.AtArg,
// with the entry held in the line.
func (l *Line) AtArg(delay Time, fn func(any), arg any) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	e := l.env
	at := e.now + delay
	e.seq++
	le := lineEntry{at: at, seq: e.seq, fn: fn, arg: arg}
	n := l.q.Len()
	if n == 0 || at < l.q.Front().at {
		if n > 0 {
			l.displaced = append(l.displaced, l.q.Front().seq)
		}
		l.q.pushFront(le)
		e.queue.push(entry{at: at, seq: le.seq, kind: kindLine, val: l})
		return
	}
	l.q.Push(le)
	e.lined++
	// Keep the ring sorted: walk an earlier time back from the tail. The
	// new seq is the largest ever issued, so it goes after every entry at
	// the same time, and at >= head.at keeps the head (and its key) put.
	i := n
	for ; l.q.At(i-1).at > at; i-- {
		*l.q.At(i) = *l.q.At(i - 1)
	}
	if i != n {
		*l.q.At(i) = le
	}
}

// At schedules fn at the given delay from now, like Env.At, with the entry
// held in the line.
func (l *Line) At(delay Time, fn func()) { l.AtArg(delay, callFn, fn) }

// callFn runs a func() carried as a line entry's argument; func values are
// pointer-shaped, so boxing one in an interface allocates nothing.
func callFn(v any) { v.(func())() }

// popNext removes the earliest pending entry from the heap and the lines.
// A line key resolves to the line's head: the head leaves the ring, the
// line's next entry replaces the key at the heap root under its own
// (at, seq) unless it already holds a key as a displaced head, and the
// head is returned as an ordinary callback entry. The head is the line's
// earliest entry and always holds a key, so a line key reaching the root
// is always its line's head.
func (e *Env) popNext() entry {
	top := e.queue.peek()
	if top.kind != kindLine {
		return e.queue.pop()
	}
	l := top.val.(*Line)
	le := l.q.Pop()
	switch k := len(l.displaced); {
	case l.q.Len() == 0:
		e.queue.pop()
	case k > 0 && l.displaced[k-1] == l.q.Front().seq:
		l.displaced = l.displaced[:k-1]
		e.queue.pop()
	default:
		h := l.q.Front()
		e.lined--
		e.queue.siftDown(entry{at: h.at, seq: h.seq, kind: kindLine, val: l}) // replaces the root
	}
	return entry{at: le.at, seq: le.seq, kind: kindFnArg, fnv: le.fn, val: le.arg}
}
