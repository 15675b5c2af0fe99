// Package trace is the execution tracing and metrics layer for the real
// executors. A Tracer is a low-overhead, concurrency-safe event recorder
// the numeric executors (internal/seqmf, internal/parmf), the out-of-core
// store (internal/ooc) and the tree-parallel solve phase stamp with their
// task lifecycle: spans for tree tasks and leaf-subtree batches, front
// phases (assembly, extend-add, partial factorization), within-front
// row-block and 2D tile tasks, solve-phase node visits, and the OOC
// store's spill writes and solve-pass reads.
//
// Memory timelines ride along for free: the tracer hooks the executors'
// memory.Meter and memory.SafeTracker observers, so every mutation of the
// resident gauge and of every worker's stack/active accounting lands in
// the event stream as a counter sample. Because observers run under the
// instruments' own locks, the recorded sequence is exactly the gauge
// history — the maximum of the "resident" track equals
// memory.ExecStats.ResidentPeak bit for bit, and each worker track's
// maximum equals that worker's active peak. These are the paper's
// Figure 4/6/8 per-processor memory-evolution curves, measured on real
// runs instead of the simulator.
//
// Three sinks consume a recorded run:
//
//   - WriteChromeTrace emits Chrome trace_event JSON — load it in
//     chrome://tracing or https://ui.perfetto.dev; one track per worker,
//     plus tracks for the OOC store and the global counters.
//   - MemorySeries / WriteMemoryCSV / Sparkline render the sampled
//     per-worker memory timelines (the ASCII view examples/observability
//     shows next to the simulator's prediction).
//   - Snapshot aggregates per-phase time/count/byte counters with
//     memory.ExecStats into a scrape-ready snapshot (Prometheus text
//     format or JSON) — the format a long-running solve server exports.
//
// A nil *Tracer is valid, ignores every call, and allocates nothing —
// the executors pay a nil check per task event and nothing else, so an
// untraced run is unchanged (pinned by TestNilTracerZeroAllocs and the
// Tracing benchmark in BENCH_kernels.json).
package trace

import (
	"sync"
	"time"
)

// Span and instant names the executors record. Sinks aggregate by these;
// they are ordinary strings, so new call sites may introduce new names
// without touching this package.
const (
	// Tree-level task lifecycle (internal/parmf, internal/seqmf).
	SpanTask    = "task"    // one upper (individual-node) tree task
	SpanSubtree = "subtree" // one leaf-subtree batch task
	EvClaim     = "claim"   // instant: worker claimed a task from the pool

	// Front-level phases, nested inside a task span.
	SpanAssemble  = "assemble"   // scatter of original entries
	SpanExtendAdd = "extend-add" // children CB assembly
	SpanFactor    = "factor"     // partial factorization (incl. split path)
	EvPut         = "put"        // instant: factor block handed to the store

	// Within-front (type-2 row-block / type-3 tile) tasks.
	SpanMaster = "master" // master panel elimination of a split front
	SpanTile   = "tile"   // one claimed row-block or tile task

	// Solve-phase node spans (parmf.TreeSolver).
	SpanSolveFwd = "solve-fwd"
	SpanSolveBwd = "solve-bwd"

	// OOC store events (internal/ooc), on the store track.
	SpanSpill      = "spill-write"   // background writer spilling one batch of blocks
	EvOOCPut       = "ooc-put"       // instant: block queued for spilling
	EvPrefetchRead = "prefetch-read" // instant: solve-pass read-ahead load
	EvDirectRead   = "direct-read"   // instant: solve fetch that outran the reader
	EvOOCDegrade   = "ooc-degrade"   // instant: block retained in-core after persistent write failure

	// Analysis phases (core.Analyze), on the global track.
	SpanAnalyzeOrder    = "analyze.order"    // A+Aᵀ pattern and fill-reducing ordering
	SpanAnalyzeSymbolic = "analyze.symbolic" // etree, postorder, permutation, column counts, supernodes
	SpanAnalyzeTree     = "analyze.tree"     // front structures of the assembly tree
	SpanAnalyzeMap      = "analyze.map"      // node splitting, Liu child order, static mapping

	// Counter names.
	CounterResident = "resident" // global resident gauge (model entries)
	CounterMem      = "mem"      // per-worker stack/active (model entries)
)

// Kind discriminates recorded events.
type Kind uint8

const (
	// KindBegin opens a span on a track; KindEnd closes the innermost
	// open span of the same name. Per track they nest like a call stack.
	KindBegin Kind = iota
	KindEnd
	// KindInstant is a point event (V1 = bytes where meaningful).
	KindInstant
	// KindCounter is a memory sample: V1/V2 = (stack, active) on worker
	// tracks, (resident, 0) on the global track.
	KindCounter
)

// Event is one recorded event. T is nanoseconds since the tracer start,
// taken under the owning track's lock so every track's events are in
// nondecreasing time order.
type Event struct {
	Kind Kind
	Name string
	Node int32 // assembly-tree node / front id, -1 when not applicable
	T    int64 // ns since tracer start
	V1   int64 // bytes (instants) or first counter value
	V2   int64 // second counter value
}

// Well-known track indices (see Tracer.Track).
const (
	TrackGlobal = 0 // global counter track ("resident")
	TrackStore  = 1 // OOC store events (spill writer spans, read instants)
	trackWorker = 2 // worker w records on track trackWorker+w
)

// track is one event sequence with its own lock: a worker's goroutine,
// the store, or the global counters. Taking the timestamp under the
// track lock makes each track monotonic even when several goroutines
// append to it (the global counter track, the store's read instants).
type track struct {
	mu     sync.Mutex
	name   string
	events []Event
}

// Tracer records events from one run (a factorization and any solves
// against its factors). Create with New; attach via the executors'
// Tracer options. All methods are safe for concurrent use and valid on a
// nil receiver (no-ops).
type Tracer struct {
	clock func() int64 // ns since start; monotonic (replaceable in tests)

	// prog is the lock-free progress ledger (see progress.go): completed
	// fronts/flops against analysis-time totals, plus a mirror of the
	// resident gauge, all readable mid-run without touching the tracks.
	prog progress

	mu     sync.RWMutex
	tracks []*track
}

// New returns a tracer with tracks for the given worker count (grown on
// demand by EnsureWorkers if a later solve runs wider).
func New(workers int) *Tracer {
	t0 := time.Now()
	t := &Tracer{clock: func() int64 { return time.Since(t0).Nanoseconds() }}
	t.tracks = []*track{{name: "global"}, {name: "store"}}
	t.EnsureWorkers(workers)
	return t
}

// EnsureWorkers grows the track table so workers 0..n-1 have tracks.
// Executors call it once per run; events never allocate tracks.
func (t *Tracer) EnsureWorkers(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for len(t.tracks) < trackWorker+n {
		t.tracks = append(t.tracks, &track{name: workerName(len(t.tracks) - trackWorker)})
	}
	t.mu.Unlock()
}

// workerName avoids fmt to keep EnsureWorkers dependency-light.
func workerName(w int) string {
	if w < 0 {
		w = 0
	}
	digits := [20]byte{}
	i := len(digits)
	for {
		i--
		digits[i] = byte('0' + w%10)
		w /= 10
		if w == 0 {
			break
		}
	}
	return "worker " + string(digits[i:])
}

// tr returns the track at index i, or nil when the tracer is nil or the
// index is out of range (the event is dropped rather than misfiled).
func (t *Tracer) tr(i int) *track {
	if t == nil || i < 0 {
		return nil
	}
	t.mu.RLock()
	var k *track
	if i < len(t.tracks) {
		k = t.tracks[i]
	}
	t.mu.RUnlock()
	return k
}

// record appends e to track i, stamping the time under the track lock.
func (t *Tracer) record(i int, e Event) {
	k := t.tr(i)
	if k == nil {
		return
	}
	k.mu.Lock()
	e.T = t.clock()
	k.events = append(k.events, e)
	k.mu.Unlock()
}

// Begin opens span name for node on worker w's track.
func (t *Tracer) Begin(w int, name string, node int) {
	if t == nil {
		return
	}
	t.record(trackWorker+w, Event{Kind: KindBegin, Name: name, Node: int32(node)})
}

// End closes the innermost open span of that name on worker w's track.
func (t *Tracer) End(w int, name string, node int) {
	if t == nil {
		return
	}
	t.record(trackWorker+w, Event{Kind: KindEnd, Name: name, Node: int32(node)})
}

// Instant records a point event on worker w's track. bytes may be 0.
func (t *Tracer) Instant(w int, name string, node int, bytes int64) {
	if t == nil {
		return
	}
	t.record(trackWorker+w, Event{Kind: KindInstant, Name: name, Node: int32(node), V1: bytes})
}

// GlobalBegin opens span name on the global track. Only the analysis
// phases, which run on one goroutine before any worker exists, record
// spans there.
func (t *Tracer) GlobalBegin(name string) {
	if t == nil {
		return
	}
	t.record(TrackGlobal, Event{Kind: KindBegin, Name: name, Node: -1})
}

// GlobalEnd closes the global-track span opened by GlobalBegin.
func (t *Tracer) GlobalEnd(name string) {
	if t == nil {
		return
	}
	t.record(TrackGlobal, Event{Kind: KindEnd, Name: name, Node: -1})
}

// StoreBegin opens a span on the store track. Only the OOC store's
// single writer goroutine opens store spans, so they always balance.
func (t *Tracer) StoreBegin(name string, node int) {
	if t == nil {
		return
	}
	t.record(TrackStore, Event{Kind: KindBegin, Name: name, Node: int32(node)})
}

// StoreEnd closes the store span opened by the matching StoreBegin.
func (t *Tracer) StoreEnd(name string, node int, bytes int64) {
	if t == nil {
		return
	}
	t.record(TrackStore, Event{Kind: KindEnd, Name: name, Node: int32(node), V1: bytes})
}

// StoreInstant records a point event on the store track (safe from any
// goroutine — solve workers' direct reads land here).
func (t *Tracer) StoreInstant(name string, node int, bytes int64) {
	if t == nil {
		return
	}
	t.record(TrackStore, Event{Kind: KindInstant, Name: name, Node: int32(node), V1: bytes})
}

// MeterObserver returns the callback to install with memory.Meter.Observe:
// every resident-gauge mutation becomes a counter sample on the global
// track. Returns nil for a nil tracer (which uninstalls the observer).
func (t *Tracer) MeterObserver() func(cur int64) {
	if t == nil {
		return nil
	}
	return func(cur int64) {
		t.observeResident(cur)
		t.record(TrackGlobal, Event{Kind: KindCounter, Name: CounterResident, Node: -1, V1: cur})
	}
}

// TrackerObserver returns the callback to install with
// memory.SafeTracker.Observe: every worker stack/front mutation becomes
// a (stack, active) counter sample on that worker's track. Returns nil
// for a nil tracer.
func (t *Tracer) TrackerObserver() func(worker int, stack, active int64) {
	if t == nil {
		return nil
	}
	return func(worker int, stack, active int64) {
		t.record(trackWorker+worker, Event{Kind: KindCounter, Name: CounterMem, Node: -1, V1: stack, V2: active})
	}
}

// Track is one track's recorded events, for the sinks and for tests.
type Track struct {
	// Index is the track's id: TrackGlobal, TrackStore, or
	// TrackGlobal+2+w for worker w (see WorkerIndex).
	Index  int
	Name   string
	Events []Event
}

// WorkerIndex returns the worker id a track index addresses, or -1 for
// the global and store tracks.
func WorkerIndex(trackIndex int) int {
	if trackIndex < trackWorker {
		return -1
	}
	return trackIndex - trackWorker
}

// Tracks snapshots every track's events (copies, safe to keep). Tracks
// with no events are included so worker identities stay dense.
func (t *Tracer) Tracks() []Track {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	tracks := append([]*track(nil), t.tracks...)
	t.mu.RUnlock()
	out := make([]Track, len(tracks))
	for i, k := range tracks {
		k.mu.Lock()
		out[i] = Track{Index: i, Name: k.name, Events: append([]Event(nil), k.events...)}
		k.mu.Unlock()
	}
	return out
}

// trackCount returns the current track-table length (the live
// aggregation's cursor table is sized against it).
func (t *Tracer) trackCount() int {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.tracks)
}

// copyFrom appends track i's events past index from to buf and returns
// the extended slice — the O(new events) read the live Collector scrapes
// with, taken under the track lock so it is safe against appending
// workers.
func (t *Tracer) copyFrom(i, from int, buf []Event) []Event {
	k := t.tr(i)
	if k == nil {
		return buf
	}
	k.mu.Lock()
	if from < len(k.events) {
		buf = append(buf, k.events[from:]...)
	}
	k.mu.Unlock()
	return buf
}

// Workers returns the number of worker tracks.
func (t *Tracer) Workers() int {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.tracks) - trackWorker
}

// Events returns the total recorded event count.
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	n := 0
	t.mu.RLock()
	tracks := append([]*track(nil), t.tracks...)
	t.mu.RUnlock()
	for _, k := range tracks {
		k.mu.Lock()
		n += len(k.events)
		k.mu.Unlock()
	}
	return n
}
