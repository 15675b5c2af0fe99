package ooc

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/front"
)

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder, as a
// spill file corrupted on the media would, asking for each part in turn.
// The contract: a malformed record is an error, never a panic, and
// decoding never allocates more than the input's size (a header
// claiming a huge front must not make the decoder allocate for it); a
// record decodes under at most one part, the one its header names, and
// then frames exactly nrows·npiv words, aliasing the input. The seed
// corpus in testdata/fuzz holds valid lower and upper records, truncated
// records, records of the unsplit format and records with flipped
// header (part included) and checksum bits.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		w := make([]float64, len(data)/8)
		copy(wordBytes(w), data)
		decoded := 0
		for _, part := range []front.Part{front.PartL, front.PartU} {
			// The allocation counter is process-wide and the fuzzing engine
			// allocates concurrently, so a decode over the bound is measured
			// again: the decoder's own cost is the least of three runs.
			// Formatting an error costs at most a few KiB whatever the input.
			const slack = 4 << 10
			grew, h, blk, err := measuredDecode(w, part)
			for try := 1; try < 3 && grew > uint64(len(data))+slack; try++ {
				again, _, _, _ := measuredDecode(w, part)
				grew = min(grew, again)
			}
			if grew > uint64(len(data))+slack {
				t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
			}
			if err != nil {
				continue
			}
			decoded++
			if h.part != part {
				t.Fatalf("record of part %v decoded as part %v", h.part, part)
			}
			if int64(len(blk)) != int64(h.nrows)*int64(h.npiv) || len(blk)+recordOverhead != len(w) {
				t.Fatalf("header %+v frames %d of %d words", h, len(blk), len(w))
			}
			if len(blk) > 0 && unsafe.SliceData(blk) != &w[headerWords] {
				t.Fatal("decoded block does not alias the record")
			}
		}
		if decoded > 1 {
			t.Fatal("record decoded as both parts")
		}
	})
}

// measuredDecode runs decodeRecord on w for part and reports the bytes
// the process allocated meanwhile.
func measuredDecode(w []float64, part front.Part) (grew uint64, h header, blk []float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h, blk, err = decodeRecord(w, part)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, h, blk, err
}
