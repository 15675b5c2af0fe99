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
// The solve side streams blocks back: the solve announces its access
// order (postorder, then reverse postorder) via Prefetch, and a reader
// goroutine loads blocks ahead of the walk into a cache bounded by the
// same entry budget. A Fetch that outruns the reader falls back to a
// direct positioned read, so correctness never depends on the prefetch
// keeping up. One solve may run at a time — BeginSolve enforces it by
// rejecting an overlapping solve (which would silently cancel the
// running solve's prefetch stream mid-pass); within one solve, Fetch and
// Release of distinct nodes may come from concurrent workers.
//
// Fault tolerance: spill I/O retries transient errors (including short
// writes — WriteAt at a fixed offset is idempotent, so a retry rewrites
// the whole block) with exponential backoff, and a block whose write
// keeps failing is by default retained in-core under the meter budget
// (Stats.DegradedBlocks) instead of failing the run — a dying disk slows
// a factorization, it does not kill it. SetContext binds the store to a
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

	"repro/internal/faults"
	"repro/internal/front"
	"repro/internal/memory"
	"repro/internal/trace"
)

// Options configures a FileStore.
type Options struct {
	// Dir is the directory for the spill file ("" = os.TempDir()).
	Dir string
	// BufferEntries is the resident-buffer budget in model entries for
	// both the write buffer and the solve-phase prefetch cache
	// (0 = 1<<16 entries, i.e. 512 KiB of float64 payload).
	BufferEntries int64
	// Prefetch is the maximum number of blocks the solve-phase reader
	// loads ahead of the walk (0 = 8).
	Prefetch int
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
	BlocksRead   int64 // spill-file block reads (prefetch stream + direct Fetches)
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

// rec locates one node's block in the spill file.
type rec struct {
	off     int64
	size    int64
	entries int64
	ok      bool
}

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
	off        int64          // next spill-file offset
	recs       []rec          // node -> spill location
	degraded   map[int]putReq // blocks kept in-core after persistent write failure
	writerDone bool
	closed     bool
	err        error
	stats      Stats
	ctxStop    chan struct{} // closes the SetContext watcher

	// Solve side, reset by each Prefetch.
	solving  bool // a BeginSolve/EndSolve bracket is open
	gen      int  // prefetch generation; bumping it cancels the reader
	cache    map[int]*front.NodeFactor
	cached   int64         // entries in cache + handed out via Fetch
	ahead    int           // blocks in cache (reader lookahead gauge)
	consumed map[int]bool  // nodes already Fetched this generation
	handed   map[int]int64 // node -> entries, Fetched but not Released
}

// NewFileStore creates the spill file and starts the writer goroutine.
func NewFileStore(opt Options) (*FileStore, error) {
	if opt.BufferEntries <= 0 {
		opt.BufferEntries = 1 << 16
	}
	if opt.Prefetch <= 0 {
		opt.Prefetch = 8
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
		cache:    map[int]*front.NodeFactor{},
		consumed: map[int]bool{},
		handed:   map[int]int64{},
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

// writer drains the put queue to the spill file in arrival order,
// discharging each block from the meter once written (or parking it in
// the degraded set when the write fails persistently).
func (s *FileStore) writer() {
	var buf []byte
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
		off := s.off
		s.mu.Unlock()

		// Only this goroutine opens store-track spans, so they balance.
		// The write section runs unlocked and contains panics (an injected
		// spill-write panic or a codec bug degrades the block instead of
		// wedging every Put waiting on writerDone).
		s.opt.Tracer.StoreBegin(trace.SpanSpill, r.ni)
		var werr error
		buf, werr = func() (b []byte, err error) {
			defer func() {
				if p := recover(); p != nil {
					b = buf[:0]
					err = fmt.Errorf("panic spilling node %d: %v", r.ni, p)
				}
			}()
			b = appendBlock(buf[:0], &r.nf)
			return b, s.writeAll(b, off, r.ni)
		}()
		s.opt.Tracer.StoreEnd(trace.SpanSpill, r.ni, int64(len(buf)))

		s.mu.Lock()
		switch {
		case werr == nil:
			if s.err == nil {
				s.setRec(r.ni, rec{off: off, size: int64(len(buf)), entries: r.entries, ok: true})
				s.off = off + int64(len(buf))
				s.stats.Blocks++
				s.stats.BytesWritten += int64(len(buf))
			}
			s.queued -= r.entries
			s.meter.Add(-r.entries)
		case s.opt.NoDegrade || s.closed || s.err != nil:
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

// setRec grows the index as needed; callers hold s.mu.
func (s *FileStore) setRec(ni int, r rec) {
	for ni >= len(s.recs) {
		s.recs = append(s.recs, rec{})
	}
	s.recs[ni] = r
}

// getRec returns node ni's spill location; callers hold s.mu.
func (s *FileStore) getRec(ni int) (rec, bool) {
	if ni < 0 || ni >= len(s.recs) || !s.recs[ni].ok {
		return rec{}, false
	}
	return s.recs[ni], true
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
// meter), so the store is quiescent for the next solve.
func (s *FileStore) EndSolve() {
	s.mu.Lock()
	s.solving = false
	s.gen++ // cancel this solve's reader
	s.dropCacheLocked()
	s.mu.Unlock()
}

// Prefetch starts streaming blocks in the given order into the solve
// cache, cancelling any previous prefetch and resetting the per-pass
// consumed set (the backward pass re-reads every block the forward pass
// already used).
func (s *FileStore) Prefetch(order []int) {
	s.mu.Lock()
	s.gen++
	gen := s.gen
	s.dropCacheLocked()
	s.consumed = make(map[int]bool, len(order))
	s.mu.Unlock()
	ord := append([]int(nil), order...)
	go s.reader(gen, ord)
}

// dropCacheLocked discards un-Fetched cached blocks, crediting the meter;
// blocks handed out via Fetch stay charged until Release.
func (s *FileStore) dropCacheLocked() {
	for ni, nf := range s.cache {
		e := blockEntries(nf)
		s.cached -= e
		s.meter.Add(-e)
		delete(s.cache, ni)
	}
	s.ahead = 0
	s.cond.Broadcast()
}

// blockEntries is the cache-accounting size of a loaded block. The codec
// stores full rectangles, so this over-counts symmetric model entries
// slightly; being conservative only tightens the budget.
func blockEntries(nf *front.NodeFactor) int64 {
	n := int64(len(nf.L.A))
	if nf.U != nil {
		n += int64(len(nf.U.A))
	}
	return n
}

// reader is the solve-phase prefetcher for one generation: it loads
// blocks in walk order into the cache, bounded by the entry budget and
// the lookahead cap, and stops as soon as the generation is stale.
// Degraded blocks have no spill record, so the walk skips them — Fetch
// serves those from memory.
func (s *FileStore) reader(gen int, order []int) {
	for _, ni := range order {
		s.mu.Lock()
		if s.gen != gen || s.closed || s.err != nil {
			s.mu.Unlock()
			return
		}
		if s.consumed[ni] || s.cache[ni] != nil {
			s.mu.Unlock()
			continue
		}
		r, ok := s.getRec(ni)
		if !ok {
			s.mu.Unlock()
			continue
		}
		for s.gen == gen && !s.closed && s.err == nil && s.cached > 0 &&
			(s.cached+r.entries > s.opt.BufferEntries || s.ahead >= s.opt.Prefetch) {
			s.cond.Wait()
		}
		if s.gen != gen || s.closed || s.err != nil {
			s.mu.Unlock()
			return
		}
		if s.consumed[ni] {
			s.mu.Unlock()
			continue
		}
		s.mu.Unlock()

		nf, err := s.readBlockSafe(ni, r)

		s.mu.Lock()
		s.stats.BlocksRead++
		if err != nil {
			if s.err == nil {
				s.err = err
			}
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		if s.gen == gen && !s.consumed[ni] {
			e := blockEntries(nf)
			s.cache[ni] = nf
			s.cached += e
			s.meter.Add(e)
			s.ahead++
			s.cond.Broadcast()
			s.opt.Tracer.StoreInstant(trace.EvPrefetchRead, ni, r.size)
		}
		s.mu.Unlock()
	}
}

// readBlockSafe is readBlock with panic containment for the prefetcher
// goroutine: a decode panic becomes an error that poisons the store
// instead of killing the process.
func (s *FileStore) readBlockSafe(ni int, r rec) (nf *front.NodeFactor, err error) {
	defer func() {
		if p := recover(); p != nil {
			nf, err = nil, fmt.Errorf("ooc: panic reading node %d: %v", ni, p)
		}
	}()
	return s.readBlock(ni, r)
}

// readBlock does one positioned read + decode (no lock held), retrying
// transient read errors with the same backoff as the write path. Decode
// errors are never retried: a record that reads back but will not parse
// is corruption, not transience.
func (s *FileStore) readBlock(ni int, r rec) (*front.NodeFactor, error) {
	buf := make([]byte, r.size)
	for attempt := 0; ; attempt++ {
		err := s.opt.Faults.Check(faults.SpillRead, ni)
		if err == nil {
			_, err = s.file.ReadAt(buf, r.off)
		}
		if err == nil {
			break
		}
		if attempt >= s.opt.RetryMax || !s.noteRetry() {
			return nil, fmt.Errorf("ooc: spill read (node %d): %w", ni, err)
		}
		time.Sleep(s.backoff(attempt))
	}
	if err := s.opt.Faults.Check(faults.Decode, ni); err != nil {
		return nil, fmt.Errorf("ooc: decode (node %d): %w", ni, err)
	}
	nf, err := decodeBlock(buf)
	if err != nil {
		return nil, fmt.Errorf("ooc: decode (node %d): %w", ni, err)
	}
	return nf, nil
}

// Fetch returns node ni's factor block: from memory when the block was
// degraded, from the prefetch cache when the reader got there first, and
// by direct read otherwise. It never blocks on the reader.
func (s *FileStore) Fetch(ni int) (*front.NodeFactor, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return nil, err
	}
	s.consumed[ni] = true
	if d, ok := s.degraded[ni]; ok {
		// Degraded blocks are already resident and meter-charged since
		// their Put; Release is a no-op for them (no handed entry) and
		// Close credits them back.
		s.mu.Unlock()
		nf := d.nf
		return &nf, nil
	}
	if nf := s.cache[ni]; nf != nil {
		delete(s.cache, ni)
		s.ahead--
		// Stays charged (cached includes handed-out blocks) until Release.
		s.handed[ni] = blockEntries(nf)
		s.cond.Broadcast()
		s.mu.Unlock()
		return nf, nil
	}
	r, ok := s.getRec(ni)
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("ooc: no factor block for node %d (factorization incomplete or not flushed)", ni)
	}
	s.stats.DirectReads++
	s.mu.Unlock()

	nf, err := s.readBlock(ni, r)
	if err != nil {
		return nil, err
	}
	s.opt.Tracer.StoreInstant(trace.EvDirectRead, ni, r.size)
	e := blockEntries(nf)
	s.mu.Lock()
	s.stats.BlocksRead++
	s.handed[ni] = e
	s.cached += e
	s.meter.Add(e)
	s.mu.Unlock()
	return nf, nil
}

// Release ends the caller's use of a Fetched block, crediting the cache
// budget and the meter.
func (s *FileStore) Release(ni int) {
	s.mu.Lock()
	if e, ok := s.handed[ni]; ok {
		delete(s.handed, ni)
		s.cached -= e
		s.meter.Add(-e)
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
	s.gen++ // cancel any reader
	if s.ctxStop != nil {
		close(s.ctxStop)
		s.ctxStop = nil
	}
	s.cond.Broadcast()
	for !s.writerDone {
		s.cond.Wait()
	}
	s.dropCacheLocked()
	for ni, e := range s.handed {
		delete(s.handed, ni)
		s.cached -= e
		s.meter.Add(-e)
	}
	for ni, r := range s.degraded {
		delete(s.degraded, ni)
		s.meter.Add(-r.entries)
	}
	s.mu.Unlock()
	err := s.file.Close()
	if rmErr := os.Remove(s.path); err == nil {
		err = rmErr
	}
	return err
}
