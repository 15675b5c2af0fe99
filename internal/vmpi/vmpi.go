// Package vmpi is a virtual message-passing layer over the discrete-event
// engine: point-to-point messages with a latency + size/bandwidth cost
// model and per-channel FIFO ordering, plus broadcast. It stands in for
// MPI in the parallel factorization simulator; the nonzero latency is what
// reproduces the stale-memory-view hazard of the paper's Figure 5.
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
package vmpi

import (
	"fmt"

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
	lastDel  [][]des.Time // per src,dst: last delivery time (FIFO channels)
	at       []des.Time   // Broadcast scratch: per-receiver delivery time
	free     []*delivery  // recycled deliveries

	Messages int64 // total messages sent
	Bytes    int64 // total bytes sent
}

// New creates a world of p processes on the engine.
func New(eng *des.Engine, p int, cfg Config) *World {
	w := &World{P: p, eng: eng, cfg: cfg, handlers: make([]Handler, p),
		at: make([]des.Time, p)}
	w.lastDel = make([][]des.Time, p)
	for i := range w.lastDel {
		w.lastDel[i] = make([]des.Time, p)
	}
	return w
}

// Register sets the message handler for a rank.
func (w *World) Register(rank int, h Handler) {
	w.handlers[rank] = h
}

// Engine returns the underlying DES engine.
func (w *World) Engine() *des.Engine { return w.eng }

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

// arrival returns the delivery time on channel src->dst of a message sent
// now with the given delay, and books it: a message never overtakes an
// earlier one on the same channel.
func (w *World) arrival(src, dst int, delay des.Time) des.Time {
	at := w.eng.Now() + delay
	if last := w.lastDel[src][dst]; at <= last {
		at = last + 1
	}
	w.lastDel[src][dst] = at
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
	w.eng.Schedule(w.arrival(src, dst, delay), d)
}

// Broadcast sends payload from src to every other rank: the same
// messages, delivery times and order as a Send to each other rank in
// ascending order, in one event per distinct delivery time.
func (w *World) Broadcast(src int, sizeEntries int64, payload any) {
	bytes, delay := w.cost(sizeEntries)
	at := w.at
	for dst := range at {
		if dst == src {
			at[dst] = -1 // times are never negative: -1 marks "handled"
			continue
		}
		w.checkRanks(src, dst)
		at[dst] = w.arrival(src, dst, delay)
		w.Messages++
		w.Bytes += bytes
	}
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
