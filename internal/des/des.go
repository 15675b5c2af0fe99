// Package des is a deterministic discrete-event simulation engine: a
// virtual clock and an event heap with stable FIFO tie-breaking. It is the
// substitute for the paper's 32-processor IBM SP — the scheduling decisions
// and memory evolution of the parallel factorization are replayed in
// virtual time, reproducibly (MUMPS itself is non-deterministic, as the
// paper notes when comparing Tables 2 and 3).
//
// Events are ordered by (time, scheduling sequence) in a typed binary heap
// over a plain slice. An event body is an Action: a closure scheduled with
// At, or a long-lived object scheduled with Schedule, which costs no
// allocation per event (vmpi recycles its message deliveries this way).
// One event may do the work of several logical ones — vmpi delivers every
// same-time copy of a broadcast from a single event.
package des

// Time is virtual time in nanoseconds.
type Time int64

// Action is the body of an event.
type Action interface{ Fire() }

// Func adapts a plain function to Action. A func value is pointer-shaped,
// so the conversion does not allocate.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// event is one scheduled action; (t, seq) is its heap key.
type event struct {
	t   Time
	seq int64
	a   Action
}

func (ev *event) before(o *event) bool {
	if ev.t != o.t {
		return ev.t < o.t
	}
	return ev.seq < o.seq
}

// Engine runs events in virtual-time order. Events scheduled at the same
// time run in scheduling order (stable).
type Engine struct {
	now    Time
	seq    int64
	events []event // binary min-heap on (t, seq)
	count  int64
}

// New returns an engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far. It counts
// events, not the logical work they carry: one event may deliver a
// broadcast to several ranks.
func (e *Engine) Processed() int64 { return e.count }

// At schedules fn at absolute time t (panics if t is in the past).
func (e *Engine) At(t Time, fn func()) { e.Schedule(t, Func(fn)) }

// Schedule schedules a at absolute time t (panics if t is in the past).
func (e *Engine) Schedule(t Time, a Action) {
	if t < e.now {
		panic("des: scheduling event in the past")
	}
	e.seq++
	e.push(event{t: t, seq: e.seq, a: a})
}

// After schedules fn dt after the current time.
func (e *Engine) After(dt Time, fn func()) {
	if dt < 0 {
		dt = 0
	}
	e.At(e.now+dt, fn)
}

// Run executes events until the queue is empty, returning the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// Step executes a single event — which may carry several logical ones,
// such as a broadcast delivered to several ranks; returns false when the
// queue is empty.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.t
	e.count++
	ev.a.Fire()
	return true
}

// push sifts ev up from the end of the heap.
func (e *Engine) push(ev event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// pop removes the minimum event, sifting the last one down from the root.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the action reference for the collector
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	e.events = h
	return top
}
