package ooc

import (
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"repro/internal/dense"
	"repro/internal/front"
)

// The spill-file record format is a flat encoding of one
// front.NodeFactor in 8-byte words, in host byte order: the spill file
// is private to the process that writes it (created as a temporary,
// removed on Close). Float values round-trip through their IEEE-754 bit
// patterns, so a block read back is bitwise identical to the block
// written — the out-of-core factorization stays exactly reproducible.
//
//	uint64  npiv
//	uint64  nrows            (front order, len(Rows))
//	uint64  hasU             (0 or 1)
//	uint64  rows[nrows]      (global front indices)
//	uint64  L[nrows*npiv]    (row-major float64 bits)
//	uint64  U[npiv*nrows]    (only when hasU == 1)
//	uint64  crc              (CRC-32C of every byte above, high half 0)
//
// A record's size is a function of its front order, pivot count and
// matrix kind alone (recordSize), which is what lets a store bound to
// an assembly tree reserve every node's offset before the first block
// arrives. Every word is 8-byte aligned, so a run of records read into
// one []float64 decodes without copying: L and U alias the read buffer
// and only Rows is converted. The checksum turns a flipped bit on the
// media into a decode error naming the node instead of a silently wrong
// solution.

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerWords is the fixed record prefix (npiv, nrows, hasU); the CRC
// adds one trailing word.
const headerWords = 3

// recordSize returns the encoded size of a block with the given front
// order and pivot count, in bytes, and its cache charge in entries (the
// words of L and U a decoded block holds).
func recordSize(nrows, npiv int, hasU bool) (bytes, entries int64) {
	entries = int64(nrows) * int64(npiv)
	if hasU {
		entries *= 2
	}
	return 8 * (headerWords + int64(nrows) + entries + 1), entries
}

// wordBytes views w's storage as bytes (no copy).
func wordBytes(w []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), 8*len(w))
}

// word is the float64 carrying the bit pattern of v.
func word(v uint64) float64 { return math.Float64frombits(v) }

// appendBlock encodes nf as one record onto w and returns the extended
// slice. The payload is appended in bulk; only the
// row indices are converted word by word.
func appendBlock(w []float64, nf *front.NodeFactor) []float64 {
	start := len(w)
	hasU := uint64(0)
	if nf.U != nil {
		hasU = 1
	}
	w = append(w, word(uint64(nf.NPiv)), word(uint64(len(nf.Rows))), word(hasU))
	for _, r := range nf.Rows {
		w = append(w, word(uint64(r)))
	}
	w = append(w, nf.L.A...)
	if nf.U != nil {
		w = append(w, nf.U.A...)
	}
	return append(w, word(uint64(crc32.Checksum(wordBytes(w[start:]), castagnoli))))
}

// decodeBlock parses one record. w must hold exactly one record; the
// decoded block's L and U alias it. The checksum is verified before any
// header field is trusted.
func decodeBlock(w []float64) (*front.NodeFactor, error) {
	if len(w) < headerWords+1 {
		return nil, fmt.Errorf("truncated record (%d bytes)", 8*len(w))
	}
	sum := crc32.Checksum(wordBytes(w[:len(w)-1]), castagnoli)
	if stored := math.Float64bits(w[len(w)-1]); stored != uint64(sum) {
		return nil, fmt.Errorf("checksum mismatch (stored %#x, computed %#x)", stored, sum)
	}
	npiv, nrows, hasU := math.Float64bits(w[0]), math.Float64bits(w[1]), math.Float64bits(w[2])
	n := uint64(len(w))
	if hasU > 1 || npiv > n || nrows > n {
		return nil, fmt.Errorf("bad record header (npiv %d, rows %d, hasU %d)", npiv, nrows, hasU)
	}
	if want, _ := recordSize(int(nrows), int(npiv), hasU == 1); want != int64(8*n) {
		return nil, fmt.Errorf("record length %d, want %d (npiv %d, rows %d)",
			8*n, want, npiv, nrows)
	}
	nf := &front.NodeFactor{Rows: make([]int, nrows), NPiv: int(npiv)}
	pos := headerWords
	for i := range nf.Rows {
		nf.Rows[i] = int(math.Float64bits(w[pos+i]))
	}
	pos += int(nrows)
	ln := int(nrows * npiv)
	nf.L = &dense.Matrix{R: int(nrows), C: int(npiv), A: w[pos : pos+ln : pos+ln]}
	pos += ln
	if hasU == 1 {
		nf.U = &dense.Matrix{R: int(npiv), C: int(nrows), A: w[pos : pos+ln : pos+ln]}
	}
	return nf, nil
}
