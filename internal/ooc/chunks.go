package ooc

import "repro/internal/front"

// chunkArena is the memory queued nodes' records are built in: one slab
// of fixed-size chunks, enough for the entry budget plus the largest
// node's records. Records are carved back to back out of a stream of
// words whose chunk k is the slab's chunk k mod chunks, so a record of
// any size reuses the chunks earlier records were written from; a
// reservation waits while it would reach the chunk of the oldest record
// not yet released. The slab is allocated on first use and handed to the
// solve's read buffers once the factorization is over, so the write path
// allocates once whatever the factor volume. Callers hold the store's lock, except that span needs
// none for words the caller holds reserved: the slab stays while any
// reservation does.
type chunkArena struct {
	size   int64     // words per chunk
	chunks int64     // chunks in the slab
	slab   []float64 // allocated on first use
	refs   []int     // slab chunk -> reservations not yet released
	live   int       // reservations not yet released
	base   int64     // oldest stream chunk a reservation may hold
	end    int64     // stream words carved so far
}

// reserve carves n words off the stream and returns the stream position
// of the first, or false while they would reach the chunk at base again.
// A reservation that fits the slab succeeds once every other is
// released.
func (a *chunkArena) reserve(n int64) (int64, bool) {
	if (a.end+n-1)/a.size-a.base >= a.chunks {
		return 0, false
	}
	if a.slab == nil {
		a.slab, a.refs = front.Uninitialized(a.chunks*a.size), make([]int, a.chunks) // every slab word is written before it is read
	}
	for k := a.end / a.size; k <= (a.end+n-1)/a.size; k++ {
		a.refs[k%a.chunks]++
	}
	a.live++
	a.end += n
	return a.end - n, true
}

// span returns the words of the stream from w on, at most n, that lie
// in w's chunk.
func (a *chunkArena) span(w, n int64) []float64 {
	lo := w/a.size%a.chunks*a.size + w%a.size
	return a.slab[lo : lo+min(n, a.size-w%a.size)]
}

// release ends the reservation of the n words at start.
func (a *chunkArena) release(start, n int64) {
	for k := start / a.size; k <= (start+n-1)/a.size; k++ {
		a.refs[k%a.chunks]--
	}
	a.live--
	for a.base < a.end/a.size && a.refs[a.base%a.chunks] == 0 {
		a.base++
	}
}

// drop hands over the slab once no reservation is left, nil otherwise,
// and forgets it.
func (a *chunkArena) drop() []float64 {
	if a.live > 0 {
		return nil
	}
	slab := a.slab
	a.slab, a.refs = nil, nil
	return slab
}
