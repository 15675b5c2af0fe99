// Package ooc is the out-of-core factor store: it realizes the paper's
// concluding argument that factor entries are written once and never
// reaccessed before the solve phase, so they can leave memory as soon as
// they are produced and only the stack (contribution blocks + active
// fronts) need stay resident.
//
// FileStore implements front.Store over a spill file, bound to one
// factorization's front.Layout: each part of a node's block (L, and U
// for unsymmetric matrices) is one record, the layout's range framed by
// a header naming the part and a checksum (codec.go). The records sit at
// the layout's offsets plus the framing before them, so the file has the
// layout's regions: every L record in postorder, then every U record in
// postorder. Both executors write the same file, and each solve pass
// reads one region in its walk order (after Agullo, Guermouche &
// L'Excellent, Parallel Computing 34, 2008): the forward pass the L
// region front to back, the backward pass the U region back to front
// (the L region again for symmetric matrices), so a pass reads only the
// half of the factors it uses.
//
// The factorization side is a bounded producer/consumer: Put extracts
// a node's block straight into its records, carved out of a fixed slab
// of chunks (chunks.go) so that records of any size reuse the same
// memory, and queues the node in a resident buffer (budget in model
// entries, the units of the assembly cost model); a background writer
// goroutine takes the queued nodes in batches of at most half the budget
// and writes each run of file-adjacent record pieces with one positioned
// vectored write (pwritev on Linux), discharging each block from the
// shared resident-memory meter the moment it is written. Put blocks only
// while the buffer is over budget (a block larger than the whole budget
// is still admitted when the buffer is empty) or the chunks are taken.
// The spill file is process-private scratch: nothing else reads it,
// Close deletes it, and it is never fsynced — the solve reads it back
// through the same page cache, and a crash loses it by design.
//
// The solve side streams records back in extents: the solve announces
// its walk and the part it reads via Prefetch, and a reader goroutine
// joins consecutive walk nodes whose records sit next to each other in
// the file into one extent, read with one positioned read into one
// []float64 that the decoded blocks alias (zero-copy; see codec.go). An
// extent holds at most half the entry budget, so the reader loads the
// next extent while the solve consumes the current one. A Fetch for a
// record of the extent being read waits for that read; a Fetch the
// stream does not cover (the tree-parallel solve's out-of-order claims)
// falls back to a direct read of the one record, so correctness never
// depends on the prefetch keeping up. One solve may run at a time —
// BeginSolve enforces it by rejecting an overlapping solve (which would
// silently cancel the running solve's prefetch stream mid-pass); within
// one solve, Fetch and Release of distinct nodes may come from
// concurrent workers.
//
// Fault tolerance: spill I/O retries transient errors (including short
// writes — a write at a fixed offset is idempotent, so a retry rewrites
// the node's records whole; a failed extent read is retried as a whole)
// with exponential backoff, and a block whose write keeps failing is by
// default retained in-core under the meter budget (Stats.DegradedBlocks)
// instead of failing the run — a dying disk slows a factorization, it
// does not kill it. Every record carries a CRC-32C, checked on every
// read: a mismatch is a decode error naming the node, never retried and
// never a silently wrong solution. SetContext binds the store to a
// context.Context so cancellation stops the spiller and prefetcher
// promptly. Records round-trip float bits exactly, so an out-of-core
// factorization — retried or degraded too — is bitwise identical to the
// in-core one.
package ooc

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/dense"
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
	// the write buffer and the solve-phase prefetch cache, which also
	// drives read-ahead: one extent read holds at most half of it (0 =
	// 1<<16 entries, i.e. 512 KiB of float64 payload). Queued records
	// live in chunks of half of it, from one slab of BufferEntries plus
	// the largest node's record words, allocated once per factorization.
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
	Blocks       int   // factor blocks spilled: nodes, whatever their number of parts
	BytesWritten int64 // spill-file bytes
	BufferPeak   int64 // peak resident write-buffer occupation (entries)
	PutWaits     int64 // Put calls that blocked on the buffer budget
	DirectReads  int64 // solve-phase Fetches served outside the prefetch stream
	BlocksRead   int64 // records read back (extent reads count each record they cover)
	Reads        int64 // positioned spill-file reads: one per extent, one per direct Fetch
	// BytesRead counts the spill-file bytes read back, by extents and by
	// direct reads: a sequential solve of an unsymmetric factorization
	// reads each written byte once, one of a symmetric factorization
	// twice (both passes read the one region).
	BytesRead int64
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

// rec locates one record in the spill file.
type rec struct {
	off     int64 // byte offset
	size    int64 // record bytes
	entries int64 // cache charge of the decoded part (its words)
}

// slot is one record's solve-pass state.
type slot struct {
	blk      []float64 // read by the stream, not yet fetched
	ext      *extent   // the read buffer blk aliases (nil after a direct read)
	handed   int64     // entries Fetched and not yet Released (0: none)
	inflight bool      // in the claimed or in-progress extent read
	used     int       // generation that last fetched the record
}

// extent is a run of consecutive walk nodes whose records of one part
// are adjacent in the spill file, so one positioned read covers them all.
type extent struct {
	off, size int64      // the byte range covering every record
	entries   int64      // summed cache charge
	part      front.Part // the part every record holds
	nodes     []int      // walk order
	buf       []float64  // the read buffer the decoded blocks alias
	live      int        // blocks of buf still cached or handed out
}

// putReq is one node waiting for the writer, and its state in the
// writer's batch.
type putReq struct {
	ni      int
	start   int64 // stream position of its records (L, then U) in the chunk arena
	entries int64
	buf     []float64 // a degraded node's records, copied out of the arena
	at      [3]int    // its record of part p is the batch's pieces[at[p]:at[p+1]]
	err     error     // its write's outcome
	rerun   bool      // a vectored write of its records failed
}

// piece is the part of one record of a writer batch that lies in one
// chunk: its node's batch position, its file offset and its words.
type piece struct {
	k   int
	off int64
	w   []float64
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
	lay        *front.Layout // the bound layout (nil until Bind)
	parts      int           // records per node: front.Parts of the layout's kind
	queue      []putReq      // nodes waiting for the writer, FIFO from qhead
	qhead      int
	queued     int64          // entries in queue + the batch being written
	spilled    []bool         // node -> its records are on disk
	slots      []slot         // record (part * nodes + node) -> solve state
	arena      chunkArena     // the memory queued nodes' records are carved from
	degraded   map[int]putReq // blocks kept in-core after persistent write failure
	writerDone bool
	closed     bool
	err        error
	stats      Stats
	ctxStop    chan struct{} // closes the SetContext watcher

	// Writer scratch, used by the writer goroutine only.
	rw     runWriter
	batch  []putReq
	pieces []piece // the batch's records chunk by chunk, in batch order
	runs   []piece // the pieces of the nodes a vectored write writes, by offset
	bufs   [][]byte

	// Solve side, reset by each Prefetch.
	solving bool        // a BeginSolve/EndSolve bracket is open
	gen     int         // prefetch generation; bumping it cancels the reader
	walk    []int       // the current pass's walk order (nil: no stream)
	part    front.Part  // the part the current pass reads
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
		rw:       newRunWriter(f),
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
// retries and blocks degraded to in-core.
func (s *FileStore) FaultCounters() (retries, degradedBlocks int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.Retries, s.stats.DegradedBlocks
}

// Bind fixes the store's layout and installs the shared resident meter,
// charged on Put (and when blocks are loaded back for the solve) and
// discharged once spilled (and on Release). A store holds one
// factorization: a second Bind fails, naming the store, instead of
// mixing a second tree's blocks into the first's records.
func (s *FileStore) Bind(lay *front.Layout, m *memory.Meter) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lay != nil {
		return fmt.Errorf("ooc: store %s already holds a factorization (a store binds once)", s.path)
	}
	s.lay, s.meter = lay, m
	s.parts = front.Parts(lay.Kind)
	s.spilled = make([]bool, lay.Tree.Len())
	s.slots = make([]slot, s.parts*lay.Tree.Len())
	var most int64
	for ni := range s.spilled {
		most = max(most, s.nodeWords(ni))
	}
	s.arena.size = s.extentWords()
	s.arena.chunks = (s.opt.BufferEntries+most+s.arena.size-1)/s.arena.size + 1
	// The writer's scratch, sized once so a warm write path allocates
	// nothing: a batch's records cross at most every chunk edge once.
	pieces := s.parts*maxBatch + int(s.arena.chunks)
	s.queue, s.batch = make([]putReq, 0, 4*maxBatch), make([]putReq, 0, maxBatch)
	s.pieces, s.runs, s.bufs = make([]piece, 0, pieces), make([]piece, 0, pieces), make([][]byte, 0, pieces)
	return nil
}

// recOf locates node ni's record of part p: the part's layout range,
// moved by the framing of the records before it.
func (s *FileStore) recOf(ni int, p front.Part) rec {
	lo, hi := s.lay.Range(ni, p)
	frame := int64(s.lay.Rank(ni, p)) * recordOverhead
	return rec{off: 8 * (lo + frame), size: 8 * (hi - lo + recordOverhead), entries: hi - lo}
}

// nodeWords is the size in words of node ni's records, all parts.
func (s *FileStore) nodeWords(ni int) int64 {
	return s.recOf(ni, front.PartL).size / 8 * int64(s.parts)
}

// headerOf is the header of node ni's record of part p.
func (s *FileStore) headerOf(ni int, p front.Part) header {
	nd := &s.lay.Tree.Nodes[ni]
	return header{npiv: nd.NPiv(), nrows: nd.NFront(), part: p}
}

// slot is node ni's solve state for part p.
func (s *FileStore) slot(ni int, p front.Part) *slot { return &s.slots[int(p)*len(s.spilled)+ni] }

// usableLocked returns why node ni cannot take a block now, or nil;
// callers hold s.mu.
func (s *FileStore) usableLocked(ni int) error {
	switch {
	case s.err != nil:
		return s.err
	case s.closed:
		return ErrClosed
	case s.lay == nil:
		return fmt.Errorf("ooc: store %s is not bound to a layout", s.path)
	case ni < 0 || ni >= len(s.spilled):
		return fmt.Errorf("ooc: node %d outside the bound tree (%d nodes)", ni, len(s.spilled))
	}
	return nil
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

// Put reserves node ni's records in the chunk arena, extracts its
// factor block from its eliminated front fr into them and queues the
// node for the writer. It blocks while the arena's chunks are held by
// records not yet written, and while the write buffer is over budget and
// other blocks are still draining. The first writer failure (after
// retries, when degradation is disabled) surfaces here immediately —
// not just at Flush/Close — so the executor stops producing blocks a
// dead store can never drain.
func (s *FileStore) Put(ni int, fr *dense.Matrix, entries int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var start, words int64
	reserved, waited := false, false
	for {
		if err := s.usableLocked(ni); err != nil {
			if reserved {
				s.arena.release(start, words)
				s.cond.Broadcast()
			}
			return err
		}
		if !reserved {
			words = s.nodeWords(ni)
			if start, reserved = s.arena.reserve(words); reserved {
				s.mu.Unlock()
				s.extract(ni, fr, start)
				s.mu.Lock()
				continue
			}
		} else if s.queued == 0 || s.queued+entries <= s.opt.BufferEntries {
			break
		}
		if !waited {
			s.stats.PutWaits++
			waited = true
		}
		s.cond.Wait()
	}
	s.queued += entries
	if s.queued > s.stats.BufferPeak {
		s.stats.BufferPeak = s.queued
	}
	s.queue = append(s.queue, putReq{ni: ni, start: start, entries: entries})
	s.meter.Add(entries)
	s.cond.Broadcast()
	s.opt.Tracer.StoreInstant(trace.EvOOCPut, ni, entries*8)
	return nil
}

// extract writes node ni's blocks from its eliminated front fr into the
// payloads of its records, reserved at stream position start, one chunk
// at a time.
func (s *FileStore) extract(ni int, fr *dense.Matrix, start int64) {
	npiv, rw := s.lay.Tree.Nodes[ni].NPiv(), s.recOf(ni, front.PartL).size/8
	for p := range front.Part(s.parts) {
		at := start + int64(p)*rw + headerWords
		for w, n := int64(0), rw-recordOverhead; w < n; {
			dst := s.arena.span(at+w, n-w)
			front.ExtractFactor(fr, npiv, p, int(w), dst)
			w += int64(len(dst))
		}
	}
}

// writer drains the put queue to the spill file in batches (writeBatch),
// discharging each block from the meter once written or parking it in
// the degraded set when the write fails persistently, and frees its
// chunks either way.
func (s *FileStore) writer() {
	s.mu.Lock()
	for {
		for s.qhead == len(s.queue) && !s.closed && s.err == nil {
			s.cond.Wait()
		}
		if s.qhead == len(s.queue) || s.err != nil {
			// Closed (or poisoned) with nothing useful left: discard any
			// stragglers so the meter balances, then exit.
			for _, r := range s.queue[s.qhead:] {
				s.queued -= r.entries
				s.meter.Add(-r.entries)
				s.arena.release(r.start, s.nodeWords(r.ni))
			}
			s.queue, s.qhead = nil, 0
			s.writerDone = true
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		batch := s.takeBatchLocked()
		s.mu.Unlock()

		// Only this goroutine opens store-track spans, so they balance.
		s.opt.Tracer.StoreBegin(trace.SpanSpill, batch[0].ni)
		bytes := s.writeBatch(batch)
		s.opt.Tracer.StoreEnd(trace.SpanSpill, batch[0].ni, bytes)

		s.mu.Lock()
		for k, r := range batch {
			words := s.nodeWords(r.ni)
			switch werr := r.err; {
			case werr == nil:
				if s.err == nil {
					s.spilled[r.ni] = true
					s.stats.Blocks++
					s.stats.BytesWritten += 8 * words
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
				// memory at solve time — and the run continues. Its records
				// move out of the arena into a buffer of their own.
				r.buf = make([]float64, 0, words)
				for _, pc := range s.nodePieces(&r) {
					r.buf = append(r.buf, pc.w...)
				}
				s.degraded[r.ni] = r
				s.stats.DegradedBlocks++
				s.stats.DegradedEntries += r.entries
				s.queued -= r.entries
				s.opt.Tracer.StoreInstant(trace.EvOOCDegrade, r.ni, r.entries*8)
			}
			s.arena.release(r.start, words)
			batch[k] = putReq{}
		}
		clear(s.pieces)
		s.cond.Broadcast()
	}
}

// maxBatch caps the nodes of one writer batch, so the writer's scratch
// has a fixed size.
const maxBatch = 128

// takeBatchLocked moves the writer's next batch off the queue: the
// queued nodes in arrival order, as many as fit in half the entry budget
// (at least one, at most maxBatch), so Put refills the other half while
// the batch is written. It cuts each node's records into pieces at the
// arena's chunk edges; callers hold s.mu.
func (s *FileStore) takeBatchLocked() []putReq {
	half := max(s.opt.BufferEntries/2, 1)
	batch, entries := s.batch[:0], int64(0)
	s.pieces = s.pieces[:0]
	for s.qhead < len(s.queue) && len(batch) < maxBatch && (len(batch) == 0 || entries+s.queue[s.qhead].entries <= half) {
		r := s.popLocked()
		for p := range front.Part(s.parts) {
			rc := s.recOf(r.ni, p)
			r.at[p] = len(s.pieces)
			at, n := r.start+int64(p)*rc.size/8, rc.size/8
			for w := int64(0); w < n; {
				c := s.arena.span(at+w, n-w)
				s.pieces = append(s.pieces, piece{k: len(batch), off: rc.off + 8*w, w: c})
				w += int64(len(c))
			}
		}
		r.at[s.parts] = len(s.pieces)
		batch = append(batch, r)
		entries += r.entries
	}
	s.batch = batch
	return batch
}

// writeBatch spills the records of batch and leaves each node's write
// error in its err, returning the batch's record bytes. Every node
// passes its spill-write fault point once per attempt in batch order,
// and a node that fails its first attempt runs its retries before the
// next node's first, so a fault schedule hits the same nodes as a writer
// spilling one node at a time. The pieces of the nodes whose first
// attempt passes are then sorted by offset, and each run of
// file-adjacent pieces is written with one vectored write; the nodes of
// a run that fails are retried on their own.
func (s *FileStore) writeBatch(batch []putReq) (bytes int64) {
	s.runs = s.runs[:0]
	for k := range batch {
		r := &batch[k]
		bytes += 8 * s.nodeWords(r.ni)
		final, err := s.firstAttempt(r)
		if err == nil {
			s.runs = append(s.runs, s.nodePieces(r)...)
		} else if !final {
			err = s.retry(r, err)
		}
		r.err = err
	}
	slices.SortFunc(s.runs, func(a, b piece) int { return cmp.Compare(a.off, b.off) })
	for lo := 0; lo < len(s.runs); {
		hi := lo + 1
		for hi < len(s.runs) && s.runs[hi].off == s.runs[hi-1].off+int64(8*len(s.runs[hi-1].w)) {
			hi++
		}
		s.bufs = s.bufs[:0]
		for _, pc := range s.runs[lo:hi] {
			s.bufs = append(s.bufs, wordBytes(pc.w))
		}
		if err := s.rw.write(s.runs[lo].off, s.bufs); err != nil {
			for _, pc := range s.runs[lo:hi] {
				batch[pc.k].err, batch[pc.k].rerun = err, true
			}
		}
		lo = hi
	}
	for k := range batch {
		if r := &batch[k]; r.rerun {
			r.err = s.retry(r, r.err)
		}
	}
	clear(s.runs)
	clear(s.bufs)
	return bytes
}

// nodePieces are the pieces of batch node r's records, L then U.
func (s *FileStore) nodePieces(r *putReq) []piece { return s.pieces[r.at[0]:r.at[s.parts]] }

// firstAttempt seals node r's records and passes its first spill-write
// fault point; an injected short write writes the records' prefix. A
// panic (an injected spill-write panic or a codec bug) is a final error,
// which is not retried: the block degrades instead of wedging every Put
// waiting on writerDone.
func (s *FileStore) firstAttempt(r *putReq) (final bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			final, err = true, fmt.Errorf("panic spilling node %d: %v", r.ni, p)
		}
	}()
	for p := range front.Part(s.parts) {
		sealRecord(s.pieces[r.at[p]:r.at[p+1]], s.headerOf(r.ni, p))
	}
	return false, s.shortWrite(r)
}

// shortWrite passes node r's spill-write fault point and, when it
// injects a short write, writes that prefix of the records and reports
// the short write.
func (s *FileStore) shortWrite(r *putReq) error {
	total := 8 * int(s.nodeWords(r.ni))
	n, err := s.opt.Faults.CheckWrite(faults.SpillWrite, r.ni, total)
	if err == nil && n < total {
		if err = s.writeNode(r, n); err == nil {
			err = fmt.Errorf("short write (%d of %d bytes)", n, total)
		}
	}
	return err
}

// writeNode writes the first n bytes of node r's records, each piece
// with one WriteAt at its offset.
func (s *FileStore) writeNode(r *putReq, n int) error {
	for _, pc := range s.nodePieces(r) {
		b := wordBytes(pc.w)
		b = b[:min(len(b), n)]
		if _, err := s.file.WriteAt(b, pc.off); err != nil {
			return err
		}
		n -= len(b)
	}
	return nil
}

// retry repeats node r's write after an attempt failed with err, with
// exponential backoff, rewriting its records whole — a short write is
// safe to repair at a fixed offset. It returns nil once an attempt
// succeeds, and the last error once retries are exhausted, the store is
// poisoned or closed mid-retry, or an attempt panics.
func (s *FileStore) retry(r *putReq, err error) (rerr error) {
	defer func() {
		if p := recover(); p != nil {
			rerr = fmt.Errorf("panic spilling node %d: %v", r.ni, p)
		}
	}()
	for attempt := 0; ; attempt++ {
		if attempt >= s.opt.RetryMax || !s.noteRetry() {
			return err
		}
		time.Sleep(s.backoff(attempt))
		if err = s.shortWrite(r); err == nil {
			if err = s.writeNode(r, 8*int(s.nodeWords(r.ni))); err == nil {
				return nil
			}
		}
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

// popLocked takes the writer's next request off the queue. Once half of
// the queue's backing array is taken, the waiting requests move to its
// front, so a steady stream of Puts appends without allocating even when
// the queue never drains; callers hold s.mu.
func (s *FileStore) popLocked() putReq {
	r := s.queue[s.qhead]
	if s.qhead++; 2*s.qhead >= len(s.queue) {
		n := copy(s.queue, s.queue[s.qhead:])
		clear(s.queue[n:])
		s.queue, s.qhead = s.queue[:n], 0
	}
	return r
}

// onDisk reports whether node ni has its spill records; callers hold
// s.mu.
func (s *FileStore) onDisk(ni int) bool {
	return ni >= 0 && ni < len(s.spilled) && s.spilled[ni]
}

// Flush blocks until every block Put so far is written to the spill file
// (or parked in the degraded set) and, the factorization being over,
// hands the arena's slab to the read buffers: three of one extent, and
// the rest, which holds the largest record. It does not sync the file:
// the spill file is process-private scratch that Close deletes, the
// solve reads it back through the same page cache, and a crash loses it
// by design.
func (s *FileStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.err == nil && !s.closed && s.queued > 0 {
		s.cond.Wait()
	}
	if slab, w := s.arena.drop(), s.arena.size; slab != nil {
		s.free = append(s.free, slab[:0:w], slab[w:w:2*w], slab[2*w:2*w:3*w], slab[3*w:3*w])
	}
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return ErrClosed
	}
	return nil
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
// meter), so the store is quiescent for the next solve; the pooled read
// buffers stay for it.
func (s *FileStore) EndSolve() {
	s.mu.Lock()
	s.solving = false
	s.resetStreamLocked(nil, front.PartL)
	s.mu.Unlock()
}

// Prefetch starts streaming part p of the given walk's blocks into the
// solve cache in extents, cancelling any previous stream and resetting
// the per-pass consumed marks (a symmetric backward pass re-reads every
// record the forward pass already used). The first extent is claimed
// before Prefetch returns, so the walk's first Fetch waits for it rather
// than racing the reader goroutine into a direct read.
func (s *FileStore) Prefetch(order []int, p front.Part) {
	s.mu.Lock()
	s.resetStreamLocked(append([]int(nil), order...), p)
	s.claimLocked()
	gen := s.gen
	s.mu.Unlock()
	go s.reader(gen)
}

// resetStreamLocked starts a new generation: it cancels the running
// stream (a claimed extent no reader has picked up yet is dropped; one
// already being read finishes and is discarded), drops the cache and
// installs walk over part p as the new stream.
func (s *FileStore) resetStreamLocked(walk []int, p front.Part) {
	s.gen++
	if e := s.claimed; e != nil {
		for _, ni := range e.nodes {
			s.slot(ni, e.part).inflight = false
		}
		s.claimed = nil
	}
	if int(p) >= s.parts {
		walk = nil // no such part: every Fetch of it fails
	}
	s.walk, s.part, s.next = walk, p, 0
	s.dropCacheLocked()
}

// dropCacheLocked discards un-Fetched cached blocks, crediting the meter;
// blocks handed out via Fetch stay charged until Release.
func (s *FileStore) dropCacheLocked() {
	for i := range s.slots {
		if sl := &s.slots[i]; sl.blk != nil {
			entries := int64(len(sl.blk))
			sl.blk = nil
			s.cached -= entries
			s.meter.Add(-entries)
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
// buffer that holds n, or a new one of at least fresh words. Every word
// is overwritten by the read before a block decodes from it, so neither
// a new nor a reused buffer is cleared.
func (s *FileStore) bufferLocked(n, fresh int64) []float64 {
	best := -1
	for i, b := range s.free {
		if int64(cap(b)) >= n && (best < 0 || cap(b) < cap(s.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return front.Uninitialized(max(n, fresh))[:n]
	}
	b := s.free[best]
	s.free = append(s.free[:best], s.free[best+1:]...)
	return b[:n]
}

// recycleLocked returns a read buffer whose blocks are all gone to the
// pool, which keeps up to four that can hold an extent: the extent being
// read, the one being consumed, and room for records larger than an
// extent.
func (s *FileStore) recycleLocked(b []float64) {
	if len(s.free) < 4 && int64(cap(b)) >= s.extentWords() {
		s.free = append(s.free, b[:0])
	}
}

// streamable reports whether the reader may still load node ni's record
// of the pass's part: the node has spill records (degraded blocks are
// served from memory) and the record is neither fetched, cached, already
// being read nor still held from an earlier pass (a slot refers to at
// most one read buffer).
func (s *FileStore) streamable(ni int) bool {
	if !s.onDisk(ni) {
		return false
	}
	sl := s.slot(ni, s.part)
	return sl.used != s.gen && sl.blk == nil && !sl.inflight && sl.handed == 0
}

// claimLocked plans the stream's next extent and claims it for the
// reader when the cache has room: the longest run of streamable walk
// nodes from s.next whose records of the pass's part are adjacent in the
// file (ascending for the forward pass, descending for the backward
// one), at most extentWords words. A record larger than that is an
// extent of its own, admitted once the cache is empty. At most one
// extent is claimed or being read at a time; claiming marks its records
// in flight, so a Fetch for one of them waits for the read instead of
// reading it again.
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
	r := s.recOf(s.walk[s.next], s.part)
	e := &extent{off: r.off, size: r.size, entries: r.entries, part: s.part, nodes: []int{s.walk[s.next]}}
	dir := 0 // +1 ascending file offsets, -1 descending
	for _, ni := range s.walk[s.next+1:] {
		if !s.streamable(ni) {
			break
		}
		r := s.recOf(ni, s.part)
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
	}
	if s.cached > 0 && s.cached+e.entries > s.opt.BufferEntries {
		return // an oversized record waits for an empty cache
	}
	for _, ni := range e.nodes {
		s.slot(ni, e.part).inflight = true
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
		s.claimed, s.reading = nil, true // its records stay in flight
		e.buf = s.bufferLocked(e.size/8, s.extentWords())
		s.mu.Unlock()

		blocks, err := s.readExtent(e)

		s.mu.Lock()
		s.reading = false
		s.stats.Reads++
		s.stats.BlocksRead += int64(len(e.nodes))
		for _, ni := range e.nodes {
			s.slot(ni, e.part).inflight = false
		}
		if err != nil {
			if s.err == nil {
				s.err = err
			}
			s.cond.Broadcast()
			return
		}
		s.stats.BytesRead += e.size
		if s.gen == gen {
			for k, ni := range e.nodes {
				sl := s.slot(ni, e.part)
				sl.blk, sl.ext = blocks[k], e
				e.live++
				r := s.recOf(ni, e.part)
				s.cached += r.entries
				s.meter.Add(r.entries)
				s.opt.Tracer.StoreInstant(trace.EvPrefetchRead, ni, r.size)
			}
			s.claimLocked()
		}
		if e.live == 0 {
			s.recycleLocked(e.buf) // a stale read: nothing kept
		}
		s.cond.Broadcast()
	}
}

// readExtent reads e with one positioned read into e.buf (e.size/8
// words; no lock held) and decodes its blocks, which alias it. Every
// record passes its spill-read fault point on each attempt; a failed
// attempt retries the whole extent with the write path's backoff.
// Decode errors — a failed decode fault point, a checksum mismatch, a
// malformed record, one holding the other part or one framing another
// node's shape — are never retried: a record that reads back but will
// not verify is corruption, not transience. A decode panic becomes an
// error too (in the prefetcher goroutine it poisons the store instead of
// killing the process).
func (s *FileStore) readExtent(e *extent) (blocks [][]float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			blocks, err = nil, fmt.Errorf("ooc: panic reading node %d: %v", e.nodes[0], p)
		}
	}()
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
		r := s.recOf(e.nodes[k], e.part)
		raw[r.off-e.off+r.size-16+6] ^= 0x08
	}
	blocks = make([][]float64, len(e.nodes))
	for k, ni := range e.nodes {
		if err := s.opt.Faults.Check(faults.Decode, ni); err != nil {
			return nil, fmt.Errorf("ooc: decode (node %d): %w", ni, err)
		}
		r := s.recOf(ni, e.part)
		lo, hi := (r.off-e.off)/8, (r.off-e.off+r.size)/8
		h, blk, err := decodeRecord(e.buf[lo:hi:hi], e.part)
		if want := s.headerOf(ni, e.part); err == nil && h != want {
			err = fmt.Errorf("record shape %+v, want %+v", h, want)
		}
		if err != nil {
			return nil, fmt.Errorf("ooc: decode (node %d): %w", ni, err)
		}
		blocks[k] = blk
	}
	return blocks, nil
}

// Fetch returns part p of node ni's factor block: from memory when the
// block was degraded, from the prefetch cache when the reader got there
// first, after the read when the record's extent is being read, and by
// direct read of its one record, into a pooled read buffer, otherwise.
// It never waits for the reader to make room.
func (s *FileStore) Fetch(ni int, p front.Part) ([]float64, error) {
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
		if p < 0 || int(p) >= max(s.parts, 1) {
			s.mu.Unlock()
			return nil, fmt.Errorf("ooc: node %d has no %v part (%d parts per block)", ni, p, s.parts)
		}
		if d, ok := s.degraded[ni]; ok {
			// Degraded blocks are already resident and meter-charged since
			// their Put; Release is a no-op for them (no handed entry) and
			// Close credits them back.
			s.mu.Unlock()
			n := len(d.buf) / s.parts
			return payload(d.buf[int(p)*n : int(p+1)*n]), nil
		}
		if !s.onDisk(ni) {
			s.mu.Unlock()
			return nil, fmt.Errorf("ooc: no factor block for node %d (factorization incomplete or not flushed)", ni)
		}
		sl := s.slot(ni, p)
		if blk := sl.blk; blk != nil {
			// Stays charged (cached includes handed-out blocks) until Release.
			sl.blk, sl.used, sl.handed = nil, s.gen, int64(len(blk))
			s.mu.Unlock()
			return blk, nil
		}
		if !sl.inflight {
			s.claimLocked() // the stream may reach ni now
		}
		if !sl.inflight {
			break
		}
		s.cond.Wait()
	}
	s.slot(ni, p).used = s.gen
	r := s.recOf(ni, p)
	s.stats.DirectReads++
	e := &extent{off: r.off, size: r.size, entries: r.entries, part: p, nodes: []int{ni}, buf: s.bufferLocked(r.size/8, 0)}
	s.mu.Unlock()

	blocks, err := s.readExtent(e)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.recycleLocked(e.buf)
		return nil, err
	}
	s.opt.Tracer.StoreInstant(trace.EvDirectRead, ni, r.size)
	s.stats.Reads++
	s.stats.BlocksRead++
	s.stats.BytesRead += r.size
	// A one-record extent: Release recycles its pooled read buffer.
	sl := s.slot(ni, p)
	sl.handed, sl.ext, e.live = r.entries, e, 1
	s.cached += r.entries
	s.meter.Add(r.entries)
	return blocks[0], nil
}

// Release ends the caller's use of a Fetched part, crediting the cache
// budget and the meter; the block's memory may be reused afterwards.
func (s *FileStore) Release(ni int, p front.Part) {
	s.mu.Lock()
	if ni >= 0 && ni < len(s.spilled) && p >= 0 && int(p) < s.parts && s.slot(ni, p).handed > 0 {
		sl := s.slot(ni, p)
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
	s.resetStreamLocked(nil, front.PartL) // cancel any reader
	for !s.writerDone {
		s.cond.Wait()
	}
	for i := range s.slots {
		if sl := &s.slots[i]; sl.handed > 0 {
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
