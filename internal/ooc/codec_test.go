package ooc

import (
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"repro/internal/front"
)

// sealFlat is the reference framing: h and the checksum written around
// the block already in payload(rec), the record in one piece.
func sealFlat(rec []float64, h header) {
	for i, v := range [...]uint64{uint64(h.npiv), uint64(h.nrows), uint64(h.part)} {
		rec[i] = math.Float64frombits(v)
	}
	rec[len(rec)-1] = math.Float64frombits(uint64(crc32.Checksum(wordBytes(rec[:len(rec)-1]), castagnoli)))
}

// TestSealRecordMatchesFlat: a record sealed chunk by chunk, as
// the writer seals a record carved out of the chunk arena, has exactly
// the bytes of the same record sealed in one piece, whatever the shape,
// the chunk size and where the record starts in its first chunk. Chunks
// of one word put an edge inside the header and on each side of the
// checksum word; the cut lists below put one on every header word and
// on the checksum word.
func TestSealRecordMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		npiv := rng.Intn(5)
		nrows := npiv + rng.Intn(7)
		h := header{npiv: npiv, nrows: nrows, part: front.Part(rng.Intn(2))}
		n := nrows*npiv + recordOverhead
		want := make([]float64, n)
		for i := range payload(want) {
			payload(want)[i] = rng.NormFloat64()
		}
		got := append([]float64(nil), want...)
		for i := range got[:headerWords] {
			got[i] = math.NaN() // the header words carry no block data
		}
		got[n-1] = math.NaN()
		sealFlat(want, h)

		// Cut got into pieces: fixed chunks of size c starting at offset
		// skew into the first one, or at explicit edges.
		var cuts []int
		switch trial % 4 {
		case 0, 1:
			c := []int{1, 2, 3, 4, 5, n - 1, n, 1 + rng.Intn(n)}[rng.Intn(8)]
			c = max(c, 1)
			for e := c - rng.Intn(c); e < n; e += c {
				cuts = append(cuts, e)
			}
		case 2:
			cuts = []int{1 + rng.Intn(headerWords), n - 1}
		case 3:
			for e := 1; e < n; e++ {
				if rng.Intn(3) == 0 {
					cuts = append(cuts, e)
				}
			}
		}
		var pieces []piece
		lo := 0
		for _, e := range cuts {
			if e > lo && e < n {
				pieces = append(pieces, piece{w: got[lo:e]})
				lo = e
			}
		}
		pieces = append(pieces, piece{w: got[lo:]})
		sealRecord(pieces, h)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d (%+v, edges %v): word %d is %#x, want %#x", trial, h, cuts, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}
