package ooc

import (
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"repro/internal/front"
	"repro/internal/sparse"
)

// The spill-file record frames one node's factor block, laid out by
// front.Layout, in 8-byte words in host byte order: the spill file is
// private to the process that writes it (created as a temporary, removed
// on Close). Float values round-trip through their IEEE-754 bit
// patterns, so a block read back is bitwise identical to the block
// written — the out-of-core factorization stays exactly reproducible.
//
//	uint64  npiv
//	uint64  nrows            (front order)
//	uint64  hasU             (0 or 1)
//	uint64  block[words]     (front.BlockWords: L, then U when hasU == 1)
//	uint64  crc              (CRC-32C of every byte above, high half 0)
//
// The block is the in-core slab's range for the node, word for word
// (front.Layout). A record is filled in place: ExtractFactor writes the
// block into a record buffer, and the writer seals the header and
// checksum around it and spills the buffer as is. A run of records read
// into one []float64 decodes without copying (the blocks alias the read
// buffer). The checksum turns a flipped bit on the media into a decode
// error naming the node instead of a silently wrong solution.

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerWords is the fixed record prefix (npiv, nrows, hasU); the CRC
// adds one trailing word.
const (
	headerWords    = 3
	recordOverhead = headerWords + 1
)

// header is a record's prefix: the shape of the block it frames (U
// follows L for unsymmetric kinds).
type header struct {
	npiv, nrows int
	kind        sparse.Type
}

// wordBytes views w's storage as bytes (no copy).
func wordBytes(w []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), 8*len(w))
}

// sealRecord writes h and the checksum around the block already in
// rec[headerWords : len(rec)-1].
func sealRecord(rec []float64, h header) {
	hasU := uint64(0)
	if h.kind == sparse.Unsymmetric {
		hasU = 1
	}
	for i, v := range [...]uint64{uint64(h.npiv), uint64(h.nrows), hasU} {
		rec[i] = math.Float64frombits(v)
	}
	rec[len(rec)-1] = math.Float64frombits(uint64(crc32.Checksum(wordBytes(rec[:len(rec)-1]), castagnoli)))
}

// decodeRecord parses one record. w must hold exactly one record; the
// returned block aliases it, so decoding allocates nothing but an error.
// The checksum is verified before any header field is trusted.
func decodeRecord(w []float64) (header, []float64, error) {
	if len(w) < recordOverhead {
		return header{}, nil, fmt.Errorf("truncated record (%d bytes)", 8*len(w))
	}
	sum := crc32.Checksum(wordBytes(w[:len(w)-1]), castagnoli)
	if stored := math.Float64bits(w[len(w)-1]); stored != uint64(sum) {
		return header{}, nil, fmt.Errorf("checksum mismatch (stored %#x, computed %#x)", stored, sum)
	}
	npiv, nrows, hasU := math.Float64bits(w[0]), math.Float64bits(w[1]), math.Float64bits(w[2])
	n := uint64(len(w))
	if hasU > 1 || npiv > n || nrows > n {
		return header{}, nil, fmt.Errorf("bad record header (npiv %d, rows %d, hasU %d)", npiv, nrows, hasU)
	}
	h := header{npiv: int(npiv), nrows: int(nrows), kind: sparse.Symmetric}
	if hasU == 1 {
		h.kind = sparse.Unsymmetric
	}
	if words := front.BlockWords(h.nrows, h.npiv, h.kind); words != int64(n)-recordOverhead {
		return header{}, nil, fmt.Errorf("record length %d, want %d (npiv %d, rows %d)",
			8*n, 8*(words+recordOverhead), npiv, nrows)
	}
	return h, w[headerWords : n-1 : n-1], nil
}
