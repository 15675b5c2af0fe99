// Package ooc is the out-of-core factor store: it realizes the paper's
// concluding argument that factor entries are written once and never
// reaccessed before the solve phase, so they can leave memory as soon as
// they are produced and only the stack (contribution blocks + active
// fronts) need stay resident.
//
// FileStore implements front.Store over a spill file. The factorization
// side is a bounded producer/consumer: executor workers Put factor
// blocks into a resident buffer (budget in model entries, the units of
// the assembly cost model) and a background writer goroutine drains the
// buffer to disk in arrival order, discharging each block from the
// shared resident-memory meter the moment it is durable. Put blocks only
// while the buffer is over budget, which is what bounds the resident
// factor footprint; a block larger than the whole budget is still
// admitted when the buffer is empty, so progress is always possible.
//
// Layout: a record's size depends only on its front's order, pivot
// count and matrix kind, so once the store is bound to the assembly
// tree (BindTree, which front.ResolveStore calls for every executor)
// each node's offset is reserved up front as a postorder prefix sum of
// record sizes. The writer still drains in arrival order but writes each
// block at its reserved offset, so the sequential and the parallel
// executor produce the same file, laid out in the order the forward
// solve reads it (after Agullo, Guermouche & L'Excellent, Parallel
// Computing 34, 2008). An unbound store appends in arrival order.
//
// The solve side streams blocks back in extents: the solve announces its
// walk (postorder, then reverse postorder) via Prefetch, and a reader
// goroutine joins consecutive walk nodes whose records sit next to each
// other in the file into one extent, read with one positioned read into
// one []float64 that the decoded blocks alias (zero-copy; see codec.go).
// An extent holds at most half the entry budget, so the reader loads the
// next extent while the solve consumes the current one, and the backward
// pass walks the same extents in reverse. A Fetch for a block of the
// extent being read waits for that read; a Fetch the stream does not
// cover (the tree-parallel solve's out-of-order claims) falls back to a
// direct read of the one record, so correctness never depends on the
// prefetch keeping up. One solve may run at a time — BeginSolve enforces
// it by rejecting an overlapping solve (which would silently cancel the
// running solve's prefetch stream mid-pass); within one solve, Fetch and
// Release of distinct nodes may come from concurrent workers.
//
// Fault tolerance: spill I/O retries transient errors (including short
// writes — WriteAt at a fixed offset is idempotent, so a retry rewrites
// the whole block; a failed extent read is retried as a whole) with
// exponential backoff, and a block whose write keeps failing is by
// default retained in-core under the meter budget (Stats.DegradedBlocks)
// instead of failing the run — a dying disk slows a factorization, it
// does not kill it. Every record carries a CRC-32C, checked on every
// read: a mismatch is a decode error naming the node, never retried and
// never a silently wrong solution. SetContext binds the store to a
// context.Context so cancellation stops the spiller and prefetcher
// promptly. Both paths are numerically invisible: retried and degraded
// runs produce factors bitwise identical to clean ones.
//
// Records round-trip float bits exactly (see codec.go), so an
// out-of-core factorization is bitwise identical to the in-core one.
package ooc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/assembly"
	"repro/internal/faults"
	"repro/internal/front"
	"repro/internal/memory"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Options configures a FileStore.
type Options struct {
	// Dir is the directory for the spill file ("" = os.TempDir()).
	Dir string
	// BufferEntries is the resident-buffer budget in model entries for
	// both the write buffer and the solve-phase prefetch cache, which
	// also drives read-ahead: one extent read holds at most half of it
	// (0 = 1<<16 entries, i.e. 512 KiB of float64 payload).
	BufferEntries int64
	// RetryMax is how many times a failed spill read or write is retried
	// before the failure counts as persistent (0 = 3, negative = none).
	RetryMax int
	// RetryBase is the first retry's backoff; it doubles per attempt,
	// capped at 250ms (0 = 1ms).
	RetryBase time.Duration
	// NoDegrade disables the write-failure fallback. By default a block
	// whose spill write still fails after retries is retained in-core
	// under the meter budget (Stats.DegradedBlocks) and the run
	// continues; with NoDegrade the first persistent write failure
	// poisons the store instead.
	NoDegrade bool
	// Faults, when non-nil, arms deterministic fault injection at the
	// store's spill-write, spill-read and decode points (see
	// internal/faults). nil is a zero-cost no-op.
	//
	// Faults and Tracer repeat front.Options' fields on purpose: the
	// store is built, and its writer goroutine started, before an
	// executor binds it, so it cannot take them from the executor's
	// options. core fills both from its front.Options when they are nil.
	Faults *faults.Injector
	// Tracer, when non-nil, records store activity on the trace's store
	// track: spill-write spans from the writer goroutine and queue/read
	// instants (see internal/trace). nil disables tracing at zero cost.
	Tracer *trace.Tracer
}

// Stats reports what the store did.
type Stats struct {
	Blocks       int   // factor blocks spilled
	BytesWritten int64 // spill-file bytes
	BufferPeak   int64 // peak resident write-buffer occupation (entries)
	PutWaits     int64 // Put calls that blocked on the buffer budget
	DirectReads  int64 // solve-phase Fetches served outside the prefetch stream
	BlocksRead   int64 // blocks read back (extent reads count each block they cover)
	Reads        int64 // positioned spill-file reads: one per extent, one per direct Fetch
	// Retries counts spill I/O attempts repeated after a transient error
	// or short write; nonzero Retries with zero DegradedBlocks means the
	// backoff absorbed every fault.
	Retries int64
	// DegradedBlocks counts blocks retained in-core after their spill
	// write failed persistently (degraded mode); DegradedEntries is their
	// total size in model entries, still charged to the resident meter.
	DegradedBlocks  int64
	DegradedEntries int64
	// QueuedEntries is the write-buffer occupation at the moment Stats was
	// called — a live gauge (the other fields are cumulative counters), so
	// a mid-run observability scrape can watch the spill backlog.
	QueuedEntries int64
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("ooc: store closed")

// rec locates one node's record in the spill file.
type rec struct {
	off     int64 // byte offset
	size    int64 // record bytes (recordSize)
	entries int64 // cache charge of the decoded block (words of L and U)
	ok      bool  // the record is on disk
}

// slot is one node's record and solve-pass state.
type slot struct {
	rec
	nf       *front.NodeFactor // read by the stream, not yet fetched
	ext      *extent           // the read buffer nf aliases (nil after a direct read)
	handed   int64             // entries Fetched and not yet Released (0: none)
	inflight bool              // in the claimed or in-progress extent read
	used     int               // generation that last fetched the node
}

// extent is a run of consecutive walk nodes whose records are adjacent
// in the spill file, so one positioned read covers them all.
type extent struct {
	off, size int64 // the byte range covering every record
	entries   int64 // summed cache charge
	nodes     []int // walk order
	recs      []rec
	buf       []float64 // the read buffer the decoded blocks alias
	live      int       // blocks of buf still cached or handed out
}

// errLayout marks a block that does not fit the record reserved for its
// node: a caller bug, so it poisons the store instead of degrading.
var errLayout = errors.New("block does not match its reserved record")

// putReq is one block waiting for the writer.
type putReq struct {
	ni      int
	nf      front.NodeFactor
	entries int64
}

// FileStore is the file-backed front.Store. Create with NewFileStore and
// Close when done (Close removes the spill file).
type FileStore struct {
	opt   Options
	meter *memory.Meter
	file  *os.File
	path  string

	mu   sync.Mutex
	cond *sync.Cond

	// Factorization side.
	queue      []putReq       // blocks waiting for the writer, FIFO
	queued     int64          // entries in queue + the block being written
	bound      bool           // nodes holds a reserved record per tree node
	off        int64          // end of the laid-out file (next append offset when unbound)
	nodes      []slot         // node -> spill location and solve state
	degraded   map[int]putReq // blocks kept in-core after persistent write failure
	writerDone bool
	closed     bool
	err        error
	stats      Stats
	ctxStop    chan struct{} // closes the SetContext watcher

	// Solve side, reset by each Prefetch.
	solving bool        // a BeginSolve/EndSolve bracket is open
	gen     int         // prefetch generation; bumping it cancels the reader
	walk    []int       // the current pass's walk order (nil: no stream)
	next    int         // first walk position the reader has not planned
	claimed *extent     // claimed for the reader, not yet picked up
	reading bool        // an extent read is in progress
	cached  int64       // entries read by the stream or handed out via Fetch
	free    [][]float64 // read buffers of finished extents, ready for reuse
}

// NewFileStore creates the spill file and starts the writer goroutine.
func NewFileStore(opt Options) (*FileStore, error) {
	if opt.BufferEntries <= 0 {
		opt.BufferEntries = 1 << 16
	}
	switch {
	case opt.RetryMax == 0:
		opt.RetryMax = 3
	case opt.RetryMax < 0:
		opt.RetryMax = 0
	}
	if opt.RetryBase <= 0 {
		opt.RetryBase = time.Millisecond
	}
	dir := opt.Dir
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "ooc-factors-*.bin")
	if err != nil {
		return nil, fmt.Errorf("ooc: create spill file: %w", err)
	}
	s := &FileStore{
		opt:      opt,
		file:     f,
		path:     f.Name(),
		degraded: map[int]putReq{},
		gen:      1, // slot.used == 0 means never fetched
	}
	s.cond = sync.NewCond(&s.mu)
	go s.writer()
	return s, nil
}

// Path returns the spill-file path (useful for diagnostics).
func (s *FileStore) Path() string { return s.path }

// Stats returns a snapshot of the store's counters.
func (s *FileStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.QueuedEntries = s.queued
	return st
}

// FaultCounters reports the store's fault-tolerance activity: spill I/O
// retries and blocks degraded to in-core. It satisfies the optional
// front.FaultStatser interface the executors use to fold store
// resilience into memory.ExecStats.
func (s *FileStore) FaultCounters() (retries, degradedBlocks int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Retries, s.stats.DegradedBlocks
}

// SetMeter installs the shared resident meter. Blocks are charged on Put
// (and when loaded back for the solve) and discharged once spilled (and
// on Release). Call before the first Put.
func (s *FileStore) SetMeter(m *memory.Meter) {
	s.mu.Lock()
	s.meter = m
	s.mu.Unlock()
}

// BindTree reserves every node's record in the solve's forward-pass
// order: node ni's offset is the sum of the record sizes of the nodes
// before it in tree.Postorder(), each size fixed by the front's order,
// pivot count and kind (recordSize). It satisfies front.TreeBinder, so
// both executors bind the store before their first Put. Binding a store
// that already holds blocks is a no-op (their layout is fixed).
func (s *FileStore) BindTree(tree *assembly.Tree, kind sparse.Type) {
	post := tree.Postorder()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bound || s.queued > 0 || s.off > 0 || len(s.degraded) > 0 {
		return
	}
	s.nodes = make([]slot, tree.Len())
	var off int64
	for _, ni := range post {
		nd := &tree.Nodes[ni]
		size, entries := recordSize(nd.NFront(), nd.NPiv(), kind == sparse.Unsymmetric)
		s.nodes[ni].rec = rec{off: off, size: size, entries: entries}
		off += size
	}
	s.off = off
	s.bound = true
}

// SetContext binds the store's lifetime to ctx: on cancellation the
// spiller and prefetcher stop promptly, blocked Put/Flush calls return
// the cancellation error, and the store stays safe to Close. A context
// that can never be cancelled is a no-op. Call before the first Put.
func (s *FileStore) SetContext(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		return
	}
	stop := make(chan struct{})
	s.mu.Lock()
	if s.ctxStop != nil {
		close(s.ctxStop)
	}
	s.ctxStop = stop
	s.mu.Unlock()
	go func() {
		select {
		case <-ctx.Done():
			s.mu.Lock()
			if s.err == nil && !s.closed {
				s.err = fmt.Errorf("ooc: store cancelled: %w", context.Cause(ctx))
			}
			s.cond.Broadcast()
			s.mu.Unlock()
		case <-stop:
		}
	}()
}

// Put hands node ni's factor block to the store. It blocks while the
// write buffer is over budget and other blocks are still draining. The
// first writer failure (after retries, when degradation is disabled)
// surfaces here immediately — not just at Flush/Close — so the executor
// stops producing blocks a dead store can never drain.
func (s *FileStore) Put(ni int, nf front.NodeFactor, entries int64) error {
	if ni < 0 {
		return fmt.Errorf("ooc: negative node %d", ni)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bound && ni >= len(s.nodes) {
		return fmt.Errorf("ooc: node %d outside the bound tree (%d nodes)", ni, len(s.nodes))
	}
	waited := false
	for s.err == nil && !s.closed && s.queued > 0 && s.queued+entries > s.opt.BufferEntries {
		if !waited {
			s.stats.PutWaits++
			waited = true
		}
		s.cond.Wait()
	}
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return ErrClosed
	}
	s.queued += entries
	if s.queued > s.stats.BufferPeak {
		s.stats.BufferPeak = s.queued
	}
	s.queue = append(s.queue, putReq{ni: ni, nf: nf, entries: entries})
	s.meter.Add(entries)
	s.cond.Broadcast()
	s.opt.Tracer.StoreInstant(trace.EvOOCPut, ni, entries*8)
	return nil
}

// writer drains the put queue to the spill file in arrival order, each
// block at its reserved offset (or appended, unbound), discharging each
// block from the meter once written (or parking it in the degraded set
// when the write fails persistently).
func (s *FileStore) writer() {
	var buf []float64
	s.mu.Lock()
	for {
		for len(s.queue) == 0 && !s.closed && s.err == nil {
			s.cond.Wait()
		}
		if len(s.queue) == 0 || s.err != nil {
			// Closed (or poisoned) with nothing useful left: discard any
			// stragglers so the meter balances, then exit.
			for _, r := range s.queue {
				s.queued -= r.entries
				s.meter.Add(-r.entries)
			}
			s.queue = nil
			s.writerDone = true
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		r := s.queue[0]
		s.queue = s.queue[1:]
		at := rec{off: s.off, size: -1}
		if s.bound {
			at = s.nodes[r.ni].rec
		}
		s.mu.Unlock()

		// Only this goroutine opens store-track spans, so they balance.
		// The write section runs unlocked and contains panics (an injected
		// spill-write panic or a codec bug degrades the block instead of
		// wedging every Put waiting on writerDone).
		s.opt.Tracer.StoreBegin(trace.SpanSpill, r.ni)
		var werr error
		buf, werr = func() (b []float64, err error) {
			defer func() {
				if p := recover(); p != nil {
					b = buf[:0]
					err = fmt.Errorf("panic spilling node %d: %v", r.ni, p)
				}
			}()
			b = appendBlock(buf[:0], &r.nf)
			if at.size >= 0 && 8*int64(len(b)) != at.size {
				return b, fmt.Errorf("%w: %d bytes, reserved %d", errLayout, 8*len(b), at.size)
			}
			return b, s.writeAll(wordBytes(b), at.off, r.ni)
		}()
		size := 8 * int64(len(buf))
		s.opt.Tracer.StoreEnd(trace.SpanSpill, r.ni, size)

		s.mu.Lock()
		switch {
		case werr == nil:
			if s.err == nil {
				_, entries := recordSize(len(r.nf.Rows), r.nf.NPiv, r.nf.U != nil)
				s.slot(r.ni).rec = rec{off: at.off, size: size, entries: entries, ok: true}
				if !s.bound {
					s.off = at.off + size
				}
				s.stats.Blocks++
				s.stats.BytesWritten += size
			}
			s.queued -= r.entries
			s.meter.Add(-r.entries)
		case s.opt.NoDegrade || s.closed || s.err != nil || errors.Is(werr, errLayout):
			if s.err == nil {
				s.err = fmt.Errorf("ooc: spill write (node %d): %w", r.ni, werr)
			}
			s.queued -= r.entries
			s.meter.Add(-r.entries)
		default:
			// Graceful degradation: the disk would not take this block, so
			// it stays resident — still charged to the meter, served from
			// memory at solve time — and the run continues.
			s.degraded[r.ni] = r
			s.stats.DegradedBlocks++
			s.stats.DegradedEntries += r.entries
			s.queued -= r.entries
			s.opt.Tracer.StoreInstant(trace.EvOOCDegrade, r.ni, r.entries*8)
		}
		s.cond.Broadcast()
	}
}

// writeAll writes buf at offset off, retrying transient failures —
// including short writes, which WriteAt's fixed offset makes safe to
// repair by rewriting the whole block — with exponential backoff. It
// returns the last error once retries are exhausted or the store is
// poisoned/closed mid-retry.
func (s *FileStore) writeAll(buf []byte, off int64, ni int) error {
	for attempt := 0; ; attempt++ {
		n, err := s.opt.Faults.CheckWrite(faults.SpillWrite, ni, len(buf))
		if err == nil {
			var wn int
			wn, err = s.file.WriteAt(buf[:n], off)
			if err == nil && n == len(buf) {
				return nil
			}
			if err == nil {
				err = fmt.Errorf("short write (%d of %d bytes)", wn, len(buf))
			}
		}
		if attempt >= s.opt.RetryMax || !s.noteRetry() {
			return err
		}
		time.Sleep(s.backoff(attempt))
	}
}

// noteRetry counts one retry, or reports false when the store has been
// poisoned or closed so in-flight retry loops stop early.
func (s *FileStore) noteRetry() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.closed {
		return false
	}
	s.stats.Retries++
	return true
}

// backoff is the sleep before retry attempt+1: RetryBase doubling per
// attempt, capped at 250ms.
func (s *FileStore) backoff(attempt int) time.Duration {
	d := s.opt.RetryBase
	for i := 0; i < attempt && d < 250*time.Millisecond; i++ {
		d *= 2
	}
	if d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	return d
}

// slot returns node ni's slot (ni >= 0), growing the index as needed;
// callers hold s.mu.
func (s *FileStore) slot(ni int) *slot {
	if ni >= len(s.nodes) {
		s.nodes = append(s.nodes, make([]slot, ni+1-len(s.nodes))...)
	}
	return &s.nodes[ni]
}

// onDisk reports whether node ni has a spill record; callers hold s.mu.
func (s *FileStore) onDisk(ni int) bool {
	return ni >= 0 && ni < len(s.nodes) && s.nodes[ni].ok
}

// Flush blocks until every block Put so far is on disk (or parked in the
// degraded set), then syncs the spill file.
func (s *FileStore) Flush() error {
	s.mu.Lock()
	for s.err == nil && !s.closed && s.queued > 0 {
		s.cond.Wait()
	}
	err := s.err
	closed := s.closed
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if closed {
		return ErrClosed
	}
	return s.file.Sync()
}

// BeginSolve opens a solve pass sequence. A second solve against the
// same store is rejected until the first's EndSolve: its Prefetch calls
// would cancel the running solve's reader mid-pass and the two walks
// would fight over the consumed set.
func (s *FileStore) BeginSolve() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.solving {
		return fmt.Errorf("ooc: solve already in progress (one solve may run at a time)")
	}
	s.solving = true
	return nil
}

// EndSolve closes the solve begun by the matching BeginSolve, cancelling
// its reader and dropping whatever it still had cached (crediting the
// meter) and its pooled read buffers, so the store is quiescent for the
// next solve.
func (s *FileStore) EndSolve() {
	s.mu.Lock()
	s.solving = false
	s.resetStreamLocked(nil)
	s.free = nil
	s.mu.Unlock()
}

// Prefetch starts streaming the given walk's blocks into the solve
// cache in extents, cancelling any previous stream and resetting the
// per-pass consumed marks (the backward pass re-reads every block the
// forward pass already used). The first extent is claimed before
// Prefetch returns, so the walk's first Fetch waits for it rather than
// racing the reader goroutine into a direct read.
func (s *FileStore) Prefetch(order []int) {
	s.mu.Lock()
	s.resetStreamLocked(append([]int(nil), order...))
	s.claimLocked()
	gen := s.gen
	s.mu.Unlock()
	go s.reader(gen)
}

// resetStreamLocked starts a new generation: it cancels the running
// stream (a claimed extent no reader has picked up yet is dropped; one
// already being read finishes and is discarded), drops the cache and
// installs walk as the new stream.
func (s *FileStore) resetStreamLocked(walk []int) {
	s.gen++
	if e := s.claimed; e != nil {
		for _, ni := range e.nodes {
			s.nodes[ni].inflight = false
		}
		s.claimed = nil
	}
	s.walk, s.next = walk, 0
	s.dropCacheLocked()
}

// dropCacheLocked discards un-Fetched cached blocks, crediting the meter;
// blocks handed out via Fetch stay charged until Release.
func (s *FileStore) dropCacheLocked() {
	for ni := range s.nodes {
		if sl := &s.nodes[ni]; sl.nf != nil {
			sl.nf = nil
			s.cached -= sl.entries
			s.meter.Add(-sl.entries)
			s.unrefLocked(sl)
		}
	}
	s.cond.Broadcast()
}

// unrefLocked ends sl's hold on its extent's read buffer, returning the
// buffer to the pool once no block of the extent is cached or handed
// out any more.
func (s *FileStore) unrefLocked(sl *slot) {
	e := sl.ext
	if e == nil {
		return
	}
	sl.ext = nil
	if e.live--; e.live == 0 {
		s.recycleLocked(e.buf)
	}
}

// extentWords caps an extent read, in words: half the entry budget, so
// the next extent can load while the solve consumes the current one. A
// record larger than that is an extent of its own.
func (s *FileStore) extentWords() int64 { return max(s.opt.BufferEntries/2, 1) }

// bufferLocked returns a read buffer of n words: the smallest pooled
// buffer that holds n, or a new one of at least extentWords. Every word
// is overwritten by the read, so reuse needs no clearing.
func (s *FileStore) bufferLocked(n int64) []float64 {
	best := -1
	for i, b := range s.free {
		if int64(cap(b)) >= n && (best < 0 || cap(b) < cap(s.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]float64, max(n, s.extentWords()))[:n]
	}
	b := s.free[best]
	s.free = append(s.free[:best], s.free[best+1:]...)
	return b[:n]
}

// recycleLocked returns a read buffer whose blocks are all gone to the
// pool, which keeps up to four: the extent being read, the one being
// consumed, and room for records larger than an extent.
func (s *FileStore) recycleLocked(b []float64) {
	if len(s.free) < 4 {
		s.free = append(s.free, b[:0])
	}
}

// streamable reports whether the reader may still load node ni in this
// pass: it has a spill record (degraded blocks are served from memory)
// and is neither fetched, cached, already being read nor still held
// from an earlier pass (a slot refers to at most one read buffer).
func (s *FileStore) streamable(ni int) bool {
	if !s.onDisk(ni) {
		return false
	}
	sl := &s.nodes[ni]
	return sl.used != s.gen && sl.nf == nil && !sl.inflight && sl.handed == 0
}

// claimLocked plans the stream's next extent and claims it for the
// reader when the cache has room: the longest run of streamable walk
// nodes from s.next whose records are adjacent in the file (ascending
// for the forward pass, descending for the backward one), at most
// extentWords words. A record larger than that is an extent of its own,
// admitted once the cache is empty. At most one extent is claimed or
// being read at a time; claiming marks its nodes in flight, so a Fetch
// for one of them waits for the read instead of reading it again.
func (s *FileStore) claimLocked() {
	if s.claimed != nil || s.reading || s.closed || s.err != nil {
		return
	}
	capW := s.extentWords()
	if s.cached > 0 && s.cached+capW > s.opt.BufferEntries {
		return // no room for a full extent yet (its entries <= its words)
	}
	for s.next < len(s.walk) && !s.streamable(s.walk[s.next]) {
		s.next++
	}
	if s.next == len(s.walk) {
		return
	}
	r := s.nodes[s.walk[s.next]].rec
	e := &extent{off: r.off, size: r.size, entries: r.entries, nodes: []int{s.walk[s.next]}, recs: []rec{r}}
	dir := 0 // +1 ascending file offsets, -1 descending
	for _, ni := range s.walk[s.next+1:] {
		if !s.streamable(ni) {
			break
		}
		r := s.nodes[ni].rec
		if (e.size+r.size)/8 > capW {
			break
		}
		if dir >= 0 && r.off == e.off+e.size {
			dir = 1
		} else if dir <= 0 && r.off+r.size == e.off {
			dir = -1
			e.off = r.off
		} else {
			break // not adjacent: the extent ends here
		}
		e.size += r.size
		e.entries += r.entries
		e.nodes = append(e.nodes, ni)
		e.recs = append(e.recs, r)
	}
	if s.cached > 0 && s.cached+e.entries > s.opt.BufferEntries {
		return // an oversized record waits for an empty cache
	}
	for _, ni := range e.nodes {
		s.nodes[ni].inflight = true
	}
	s.next += len(e.nodes)
	s.claimed = e
	s.cond.Broadcast()
}

// live reports whether generation gen's stream may go on.
func (s *FileStore) live(gen int) bool { return s.gen == gen && !s.closed && s.err == nil }

// reader is the solve-phase prefetcher for one generation: it reads the
// claimed extents of the walk one at a time, caches their blocks and
// claims the next extent in the same critical section, stopping when the
// walk is exhausted or the generation is stale.
func (s *FileStore) reader(gen int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for s.live(gen) && s.claimed == nil && s.next < len(s.walk) {
			if s.claimLocked(); s.claimed == nil {
				s.cond.Wait()
			}
		}
		e := s.claimed
		if !s.live(gen) || e == nil {
			return
		}
		s.claimed, s.reading = nil, true // its nodes stay in flight
		e.buf = s.bufferLocked(e.size / 8)
		s.mu.Unlock()

		blocks, err := s.readExtentSafe(e)

		s.mu.Lock()
		s.reading = false
		s.stats.Reads++
		s.stats.BlocksRead += int64(len(e.nodes))
		for _, ni := range e.nodes {
			s.nodes[ni].inflight = false
		}
		if err != nil {
			if s.err == nil {
				s.err = err
			}
			s.cond.Broadcast()
			return
		}
		if s.gen == gen {
			for k, ni := range e.nodes {
				sl := &s.nodes[ni]
				sl.nf, sl.ext = blocks[k], e
				e.live++
				s.cached += sl.entries
				s.meter.Add(sl.entries)
				s.opt.Tracer.StoreInstant(trace.EvPrefetchRead, ni, sl.size)
			}
			s.claimLocked()
		}
		if e.live == 0 {
			s.recycleLocked(e.buf) // a stale read: nothing kept
		}
		s.cond.Broadcast()
	}
}

// readExtentSafe is readExtent with panic containment for the prefetcher
// goroutine: a decode panic becomes an error that poisons the store
// instead of killing the process.
func (s *FileStore) readExtentSafe(e *extent) (blocks []*front.NodeFactor, err error) {
	defer func() {
		if p := recover(); p != nil {
			blocks, err = nil, fmt.Errorf("ooc: panic reading node %d: %v", e.nodes[0], p)
		}
	}()
	return s.readExtent(e)
}

// readExtent reads e with one positioned read into e.buf (e.size/8
// words; no lock held) and decodes its blocks, which alias it. Every
// block passes its spill-read fault point on each attempt; a failed
// attempt retries the whole extent with the write path's backoff.
// Decode errors — a failed decode fault point, a checksum mismatch, a
// malformed record — are never retried: a record that reads back but
// will not verify is corruption, not transience.
func (s *FileStore) readExtent(e *extent) ([]*front.NodeFactor, error) {
	raw := wordBytes(e.buf)
	var corrupt []int // records whose payload the fault schedule flips
	for attempt := 0; ; attempt++ {
		corrupt = corrupt[:0]
		failed := -1 // node whose fault point failed this attempt
		var err error
		for k, ni := range e.nodes {
			var flip bool
			if flip, err = s.opt.Faults.CheckRead(faults.SpillRead, ni); err != nil {
				failed = ni
				break
			}
			if flip {
				corrupt = append(corrupt, k)
			}
		}
		if err == nil {
			_, err = s.file.ReadAt(raw, e.off)
		}
		if err == nil {
			break
		}
		if attempt >= s.opt.RetryMax || !s.noteRetry() {
			if failed < 0 && len(e.nodes) > 1 {
				return nil, fmt.Errorf("ooc: spill read (node %d, extent of %d blocks): %w", e.nodes[0], len(e.nodes), err)
			}
			if failed < 0 {
				failed = e.nodes[0]
			}
			return nil, fmt.Errorf("ooc: spill read (node %d): %w", failed, err)
		}
		time.Sleep(s.backoff(attempt))
	}
	for _, k := range corrupt {
		// Flip one bit of the record's last payload word, an L or U
		// entry (its top mantissa bit on little-endian hosts).
		r := e.recs[k]
		raw[r.off-e.off+r.size-16+6] ^= 0x08
	}
	blocks := make([]*front.NodeFactor, len(e.nodes))
	for k, ni := range e.nodes {
		if err := s.opt.Faults.Check(faults.Decode, ni); err != nil {
			return nil, fmt.Errorf("ooc: decode (node %d): %w", ni, err)
		}
		lo, hi := (e.recs[k].off-e.off)/8, (e.recs[k].off-e.off+e.recs[k].size)/8
		nf, err := decodeBlock(e.buf[lo:hi:hi])
		if err != nil {
			return nil, fmt.Errorf("ooc: decode (node %d): %w", ni, err)
		}
		blocks[k] = nf
	}
	return blocks, nil
}

// Fetch returns node ni's factor block: from memory when the block was
// degraded, from the prefetch cache when the reader got there first,
// after the read when the block's extent is being read, and by direct
// read of its one record otherwise. It never waits for the reader to
// make room.
func (s *FileStore) Fetch(ni int) (*front.NodeFactor, error) {
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		if s.err != nil {
			err := s.err
			s.mu.Unlock()
			return nil, err
		}
		if d, ok := s.degraded[ni]; ok {
			// Degraded blocks are already resident and meter-charged since
			// their Put; Release is a no-op for them (no handed entry) and
			// Close credits them back.
			s.mu.Unlock()
			nf := d.nf
			return &nf, nil
		}
		if !s.onDisk(ni) {
			s.mu.Unlock()
			return nil, fmt.Errorf("ooc: no factor block for node %d (factorization incomplete or not flushed)", ni)
		}
		sl := &s.nodes[ni]
		if nf := sl.nf; nf != nil {
			// Stays charged (cached includes handed-out blocks) until Release.
			sl.nf, sl.used, sl.handed = nil, s.gen, sl.entries
			s.mu.Unlock()
			return nf, nil
		}
		if !sl.inflight {
			s.claimLocked() // the stream may reach ni now
		}
		if !sl.inflight {
			break
		}
		s.cond.Wait()
	}
	sl := &s.nodes[ni]
	sl.used = s.gen
	r := sl.rec
	s.stats.DirectReads++
	s.mu.Unlock()

	blocks, err := s.readExtent(&extent{off: r.off, size: r.size, nodes: []int{ni}, recs: []rec{r}, buf: make([]float64, r.size/8)})
	if err != nil {
		return nil, err
	}
	s.opt.Tracer.StoreInstant(trace.EvDirectRead, ni, r.size)
	s.mu.Lock()
	s.stats.Reads++
	s.stats.BlocksRead++
	s.nodes[ni].handed = r.entries
	s.cached += r.entries
	s.meter.Add(r.entries)
	s.mu.Unlock()
	return blocks[0], nil
}

// Release ends the caller's use of a Fetched block, crediting the cache
// budget and the meter; the block's memory may be reused afterwards.
func (s *FileStore) Release(ni int) {
	s.mu.Lock()
	if ni >= 0 && ni < len(s.nodes) && s.nodes[ni].handed > 0 {
		sl := &s.nodes[ni]
		s.cached -= sl.handed
		s.meter.Add(-sl.handed)
		sl.handed = 0
		s.unrefLocked(sl)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Close stops the writer, reader and context watcher, discharges
// everything still resident (including degraded blocks), closes and
// removes the spill file. It is safe to call after an aborted
// factorization (pending blocks are discarded).
func (s *FileStore) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	if s.ctxStop != nil {
		close(s.ctxStop)
		s.ctxStop = nil
	}
	s.resetStreamLocked(nil) // cancel any reader
	for !s.writerDone {
		s.cond.Wait()
	}
	for ni := range s.nodes {
		if sl := &s.nodes[ni]; sl.handed > 0 {
			s.cached -= sl.handed
			s.meter.Add(-sl.handed)
			sl.handed = 0
		}
	}
	for ni, r := range s.degraded {
		delete(s.degraded, ni)
		s.meter.Add(-r.entries)
	}
	s.free = nil
	s.mu.Unlock()
	err := s.file.Close()
	if rmErr := os.Remove(s.path); err == nil {
		err = rmErr
	}
	return err
}
