package ooc

import (
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"repro/internal/front"
)

// The spill-file record frames one part (L or U) of one node's factor
// block, laid out by front.Layout, in 8-byte words in host byte order:
// the spill file is private to the process that writes it (created as a
// temporary, removed on Close). Float values round-trip through their
// IEEE-754 bit patterns, so a block read back is bitwise identical to
// the block written — the out-of-core factorization stays exactly
// reproducible.
//
//	uint64  npiv
//	uint64  nrows            (front order)
//	uint64  part             (0: L, 1: U)
//	uint64  block[words]     (front.PartWords: nrows·npiv, the part's layout range)
//	uint64  crc              (CRC-32C of every byte above, high half 0)
//
// The block is the in-core slab's range for the node's part, word for
// word (front.Layout); the part word tells an L record from a U record
// of the same shape, so a record read from the wrong region fails to
// decode. A node's records are filled in place: the file store carves
// them out of fixed-size chunks, ExtractFactor writes the blocks chunk
// by chunk, and the writer seals the headers and checksums around them
// and spills each chunk's piece of a record as it is. A run of
// records read into one []float64 decodes without copying (the blocks
// alias the read buffer). The checksum turns a flipped bit on the media
// into a decode error naming the node instead of a silently wrong
// solution.

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerWords is the fixed record prefix (npiv, nrows, part); the CRC
// adds one trailing word.
const (
	headerWords    = 3
	recordOverhead = headerWords + 1
)

// header is a record's prefix: the shape of the front whose part it
// frames, and the part.
type header struct {
	npiv, nrows int
	part        front.Part
}

// wordBytes views w's storage as bytes (no copy).
func wordBytes(w []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), 8*len(w))
}

// payload is the block a record frames: the record less its header and
// checksum.
func payload(rec []float64) []float64 {
	n := len(rec) - 1
	return rec[headerWords:n:n]
}

// sealRecord writes h and the checksum around the block already in a
// record that lies in the non-empty pieces ps, back to back: the header
// may straddle piece edges, and the checksum runs across the pieces with
// crc32.Update, so the bytes are those of the record sealed in one piece.
func sealRecord(ps []piece, h header) {
	hdr := [headerWords]uint64{uint64(h.npiv), uint64(h.nrows), uint64(h.part)}
	i := 0
	for _, pc := range ps {
		for j := 0; j < len(pc.w) && i < headerWords; j++ {
			pc.w[j] = math.Float64frombits(hdr[i])
			i++
		}
	}
	var sum uint32
	for _, pc := range ps[:len(ps)-1] {
		sum = crc32.Update(sum, castagnoli, wordBytes(pc.w))
	}
	last := ps[len(ps)-1].w
	sum = crc32.Update(sum, castagnoli, wordBytes(last[:len(last)-1]))
	last[len(last)-1] = math.Float64frombits(uint64(sum))
}

// decodeRecord parses one record of part want. w must hold exactly one
// record; the returned block aliases it, so decoding allocates nothing
// but an error. The checksum is verified before any header field is
// trusted, and a well-formed record of the other part is an error.
func decodeRecord(w []float64, want front.Part) (header, []float64, error) {
	if len(w) < recordOverhead {
		return header{}, nil, fmt.Errorf("truncated record (%d bytes)", 8*len(w))
	}
	sum := crc32.Checksum(wordBytes(w[:len(w)-1]), castagnoli)
	if stored := math.Float64bits(w[len(w)-1]); stored != uint64(sum) {
		return header{}, nil, fmt.Errorf("checksum mismatch (stored %#x, computed %#x)", stored, sum)
	}
	npiv, nrows, part := math.Float64bits(w[0]), math.Float64bits(w[1]), math.Float64bits(w[2])
	n := uint64(len(w))
	if part > uint64(front.PartU) || npiv > n || nrows > n {
		return header{}, nil, fmt.Errorf("bad record header (npiv %d, rows %d, part %d)", npiv, nrows, part)
	}
	h := header{npiv: int(npiv), nrows: int(nrows), part: front.Part(part)}
	if words := front.PartWords(h.nrows, h.npiv); words != int64(n)-recordOverhead {
		return header{}, nil, fmt.Errorf("record length %d, want %d (npiv %d, rows %d)",
			8*n, 8*(words+recordOverhead), npiv, nrows)
	}
	if h.part != want {
		return header{}, nil, fmt.Errorf("record holds part %v, want part %v", h.part, want)
	}
	return h, payload(w), nil
}
