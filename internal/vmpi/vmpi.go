// Package vmpi is a virtual message-passing layer over the discrete-event
// engine: point-to-point messages with a latency + size/bandwidth cost
// model and per-channel FIFO ordering, broadcast, and published state
// (Board). It stands in for MPI in the parallel factorization simulator;
// the nonzero latency is what reproduces the stale-memory-view hazard of
// the paper's Figure 5.
//
// A broadcast costs one engine event per distinct delivery time, not one
// per receiver: every receiver's time follows exactly the Send rule, and
// the receivers that share a time are handled by a single event, in rank
// order. The delivery order is the one a loop of P−1 Sends would give: the
// looped events would carry consecutive sequence numbers with no other
// event scheduled between them, so no outside event could run between two
// same-time deliveries of one broadcast, and events a handler schedules
// get later sequence numbers and run after the whole group either way.
// Deliveries are recycled objects, so neither Send nor Broadcast allocates
// per message in steady state.
//
// A Board publication costs no event at all. It is booked on the channels
// and counted like a broadcast, but nothing runs at its arrivals: a reader
// asks the board for the newest state that reached it before the running
// event, which is what a receiver folding looped-Send deliveries would hold
// at that moment. In the simulator, reads are rare next to publications,
// so most of the traffic costs the engine nothing.
package vmpi

import (
	"fmt"
	"sort"

	"repro/internal/des"
)

// Handler receives messages delivered to a rank.
type Handler func(from int, payload any)

// Config sets the communication cost model.
type Config struct {
	Latency   des.Time // per-message latency
	BytesPerE int64    // bytes per matrix entry (8 for float64)
	Bandwidth int64    // bytes per second; 0 = infinite
}

// DefaultConfig models a early-2000s cluster interconnect: ~20us latency,
// ~200 MB/s bandwidth.
func DefaultConfig() Config {
	return Config{Latency: 20_000, BytesPerE: 8, Bandwidth: 200e6}
}

// World is a set of P simulated processes exchanging messages.
type World struct {
	P        int
	eng      *des.Engine
	cfg      Config
	handlers []Handler
	out      []channels  // per sender: the FIFO bookings of its channels
	at       []des.Time  // Broadcast scratch: per-receiver delivery time
	free     []*delivery // recycled deliveries
	last     des.Time    // latest arrival booked on any channel

	Messages int64 // total messages sent
	Bytes    int64 // total bytes sent
}

// channels books the arrivals on one sender's P−1 outgoing channels. A
// broadcast moves all of them together, so most share one last arrival,
// common. A channel a later Send went down keeps its own, later, last
// arrival in last[dst] and is listed in lag until a broadcast lands on it
// at the common time again. Channel dst's last arrival is therefore
// max(common, last[dst]), and a broadcast costs O(len(lag)), not O(P).
type channels struct {
	common des.Time
	last   []des.Time
	lag    []int // the dsts with last[dst] > common, in no order
}

// lastOf returns the last arrival booked on the channel to dst.
func (c *channels) lastOf(dst int) des.Time {
	return max(c.common, c.last[dst])
}

// send books a message that would arrive at earliest on the channel to
// dst; a message never overtakes an earlier one on the same channel.
func (c *channels) send(dst int, earliest des.Time) des.Time {
	lagging := c.last[dst] > c.common
	at := max(earliest, c.lastOf(dst)+1)
	c.last[dst] = at // > common: the channel lags now
	if !lagging {
		c.lag = append(c.lag, dst)
	}
	return at
}

// broadcast books a message that would arrive at earliest on every
// channel, returning the common arrival; the lagging channels that it
// does not reach at that time stay in lag with their own arrival.
func (c *channels) broadcast(earliest des.Time) des.Time {
	c.common = max(earliest, c.common+1)
	k := 0
	for _, dst := range c.lag {
		at := max(earliest, c.last[dst]+1)
		c.last[dst] = at
		if at > c.common {
			c.lag[k] = dst
			k++
		}
	}
	c.lag = c.lag[:k]
	return c.common
}

// New creates a world of p processes on the engine.
func New(eng *des.Engine, p int, cfg Config) *World {
	w := &World{P: p, eng: eng, cfg: cfg, handlers: make([]Handler, p),
		at: make([]des.Time, p), out: make([]channels, p)}
	for i := range w.out {
		w.out[i].last = make([]des.Time, p)
	}
	return w
}

// Register sets the message handler for a rank.
func (w *World) Register(rank int, h Handler) {
	w.handlers[rank] = h
}

// Engine returns the underlying DES engine.
func (w *World) Engine() *des.Engine { return w.eng }

// LastArrival returns the latest arrival booked on any channel, Board
// publications included. Once the engine has run dry, the simulated run
// ends at the later of this and the engine's clock.
func (w *World) LastArrival() des.Time { return w.last }

// delivery is one engine event handing payload from src to each of dsts
// (ascending ranks, one shared delivery time).
type delivery struct {
	w       *World
	src     int
	payload any
	dsts    []int
}

// Fire runs the handlers, then returns the delivery to the free list.
func (d *delivery) Fire() {
	w := d.w
	for _, dst := range d.dsts {
		w.handlers[dst](d.src, d.payload)
	}
	d.payload, d.dsts = nil, d.dsts[:0]
	w.free = append(w.free, d)
}

func (w *World) newDelivery(src int, payload any) *delivery {
	if n := len(w.free); n > 0 {
		d := w.free[n-1]
		w.free = w.free[:n-1]
		d.src, d.payload = src, payload
		return d
	}
	// Room for a whole broadcast, so a recycled delivery never regrows.
	return &delivery{w: w, src: src, payload: payload, dsts: make([]int, 0, w.P)}
}

// checkRanks panics on an out-of-range rank or a receiver without handler.
func (w *World) checkRanks(src, dst int) {
	if src < 0 || src >= w.P || dst < 0 || dst >= w.P {
		panic(fmt.Sprintf("vmpi: bad ranks %d->%d", src, dst))
	}
	if w.handlers[dst] == nil {
		panic(fmt.Sprintf("vmpi: no handler registered for rank %d", dst))
	}
}

// cost returns the byte count and network delay of one message.
func (w *World) cost(sizeEntries int64) (int64, des.Time) {
	bytes := sizeEntries * w.cfg.BytesPerE
	delay := w.cfg.Latency
	if w.cfg.Bandwidth > 0 && bytes > 0 {
		delay += des.Time(bytes * 1e9 / w.cfg.Bandwidth)
	}
	return bytes, delay
}

// broadcast counts and books a message of the given size from src on all
// of its channels, returning the common arrival (see channels).
func (w *World) broadcast(src int, sizeEntries int64) des.Time {
	bytes, delay := w.cost(sizeEntries)
	w.Messages += int64(w.P - 1)
	w.Bytes += int64(w.P-1) * bytes
	c := &w.out[src]
	at := c.broadcast(w.eng.Now() + delay)
	for _, dst := range c.lag {
		w.last = max(w.last, c.last[dst])
	}
	w.last = max(w.last, at)
	return at
}

// Send delivers payload from src to dst after the modeled delay.
// sizeEntries is the logical message size in matrix entries (0 for control
// messages). Messages on the same (src,dst) channel are delivered in order.
func (w *World) Send(src, dst int, sizeEntries int64, payload any) {
	w.checkRanks(src, dst)
	bytes, delay := w.cost(sizeEntries)
	w.Messages++
	w.Bytes += bytes
	d := w.newDelivery(src, payload)
	d.dsts = append(d.dsts, dst)
	if src == dst {
		// Local notification: deliver after a tick, no network cost.
		w.eng.Schedule(w.eng.Now(), d)
		return
	}
	at := w.out[src].send(dst, w.eng.Now()+delay)
	w.last = max(w.last, at)
	w.eng.Schedule(at, d)
}

// Broadcast sends payload from src to every other rank: the same
// messages, delivery times and order as a Send to each other rank in
// ascending order, in one event per distinct delivery time.
func (w *World) Broadcast(src int, sizeEntries int64, payload any) {
	if w.P < 2 {
		return
	}
	for dst := range w.P {
		if dst != src {
			w.checkRanks(src, dst)
		}
	}
	common := w.broadcast(src, sizeEntries)
	at := w.at
	for dst := range at {
		at[dst] = common
	}
	for _, dst := range w.out[src].lag {
		at[dst] = w.out[src].last[dst]
	}
	at[src] = -1 // times are never negative: -1 marks "handled"
	// One delivery per distinct time, receivers in rank order. Almost
	// every broadcast has one or two distinct times, so the rescan is
	// cheap.
	for first := range at {
		t := at[first]
		if t < 0 {
			continue
		}
		d := w.newDelivery(src, payload)
		for dst := first; dst < len(at); dst++ {
			if at[dst] == t {
				d.dsts = append(d.dsts, dst)
				at[dst] = -1
			}
		}
		w.eng.Schedule(t, d)
	}
}

// Board is state that each rank publishes to all the others: a
// publication is a broadcast that runs no handler. Each one carries the
// publisher's whole state of type S, not a change to it, so the newest
// publication a rank has received is all it needs: with FIFO channels it
// equals the fold of every update received so far.
//
// Publications are booked on the world's channels and counted in
// Messages and Bytes exactly as Broadcast books and counts them, so they
// delay the real messages behind them as a broadcast would. Read keys each
// publication by its arrival and a sequence number reserved when it was
// published, and compares that with the running event (des.Engine.Passed):
// it sees exactly the publications whose looped-Send deliveries would
// have run by now.
type Board[S any] struct {
	w    *World
	logs []pubLog[S]
}

// pubLog is one rank's log of publications not yet received by every
// other rank, oldest first. log[head] is kept once it has been received
// everywhere: it is what a reader finds when nothing newer has reached it.
type pubLog[S any] struct {
	log  []publication[S]
	head int
	lags []lagged // the lagging channels of the entries in log, in order
}

// publication is one published state. It arrives at at on every channel
// except its lags (lags[lag0 : lag0+nlag] of the log), which arrive later;
// last is the latest of its arrivals.
type publication[S any] struct {
	at, last   des.Time
	seq        int64
	lag0, nlag int
	state      S
}

// lagged is the arrival of a publication on a lagging channel.
type lagged struct {
	dst int
	at  des.Time
}

// NewBoard returns a board over w's ranks and channels with nothing
// published yet: a Read then returns the zero S.
func NewBoard[S any](w *World) *Board[S] {
	return &Board[S]{w: w, logs: make([]pubLog[S], w.P)}
}

// Publish makes s src's state, sent to every other rank like a Broadcast
// of sizeEntries entries.
func (b *Board[S]) Publish(src int, sizeEntries int64, s S) {
	w := b.w
	if w.P < 2 {
		return
	}
	if src < 0 || src >= w.P {
		panic(fmt.Sprintf("vmpi: bad publishing rank %d", src))
	}
	at := w.broadcast(src, sizeEntries)
	p := &b.logs[src]
	p.prune(w.eng)
	c := &w.out[src]
	e := publication[S]{at: at, last: at, seq: w.eng.Reserve(), lag0: len(p.lags), nlag: len(c.lag), state: s}
	for _, dst := range c.lag {
		p.lags = append(p.lags, lagged{dst, c.last[dst]})
		e.last = max(e.last, c.last[dst])
	}
	p.log = append(p.log, e)
}

// Read returns the newest state src published that reached dst (another
// rank) before the running event, or the zero S if none has.
func (b *Board[S]) Read(src, dst int) S {
	p := &b.logs[src]
	live := p.log[p.head:]
	// Arrivals on one channel are FIFO, so the publications that reached
	// dst are a prefix of the log: find its end.
	k := sort.Search(len(live), func(i int) bool {
		return !b.w.eng.Passed(p.arrival(&live[i], dst), live[i].seq)
	})
	if k == 0 {
		var zero S
		return zero
	}
	return live[k-1].state
}

// arrival returns e's arrival on the channel to dst.
func (p *pubLog[S]) arrival(e *publication[S], dst int) des.Time {
	for _, l := range p.lags[e.lag0 : e.lag0+e.nlag] {
		if l.dst == dst {
			return l.at
		}
	}
	return e.at
}

// prune drops the publications older than the newest one every channel
// has received, and compacts the log once half of it is dropped.
func (p *pubLog[S]) prune(eng *des.Engine) {
	for p.head+1 < len(p.log) && eng.Passed(p.log[p.head+1].last, p.log[p.head+1].seq) {
		p.head++
	}
	if p.head == 0 || 2*p.head < len(p.log) {
		return
	}
	n := copy(p.log, p.log[p.head:])
	p.log, p.head = p.log[:n], 0
	drop := p.log[0].lag0
	p.lags = p.lags[:copy(p.lags, p.lags[drop:])]
	for i := range p.log {
		p.log[i].lag0 -= drop
	}
}
