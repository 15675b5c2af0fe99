package ooc

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/front"
)

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder, as a
// spill file corrupted on the media would. The contract: a malformed
// record is an error, never a panic, and decoding never allocates more
// than the input's size (a header claiming a huge front must not make
// the decoder allocate for it); a record that decodes frames exactly the
// block its header describes, aliasing the input. The seed corpus in
// testdata/fuzz holds valid records of both kinds, truncated records
// and records with flipped header and checksum bits.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		w := make([]float64, len(data)/8)
		copy(wordBytes(w), data)
		// The allocation counter is process-wide and the fuzzing engine
		// allocates concurrently, so a decode over the bound is measured
		// again: the decoder's own cost is the least of three runs.
		// Formatting an error costs at most a few KiB whatever the input.
		const slack = 4 << 10
		grew, h, blk, err := measuredDecode(w)
		for try := 1; try < 3 && grew > uint64(len(data))+slack; try++ {
			again, _, _, _ := measuredDecode(w)
			grew = min(grew, again)
		}
		if grew > uint64(len(data))+slack {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		if int64(len(blk)) != front.BlockWords(h.nrows, h.npiv, h.kind) || len(blk)+recordOverhead != len(w) {
			t.Fatalf("header %+v frames %d of %d words", h, len(blk), len(w))
		}
		if len(blk) > 0 && unsafe.SliceData(blk) != &w[headerWords] {
			t.Fatal("decoded block does not alias the record")
		}
	})
}

// measuredDecode runs decodeRecord on w and reports the bytes the
// process allocated meanwhile.
func measuredDecode(w []float64) (grew uint64, h header, blk []float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h, blk, err = decodeRecord(w)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, h, blk, err
}
