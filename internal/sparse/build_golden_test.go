package sparse_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/sparse"
	"repro/internal/workload"
)

// generatorGoldenPath holds a SHA-256 hash of the CSC arrays of every suite
// generator. Every full-suite entry, and every reduced-suite entry but one,
// is what Build produced while it was a comparison sort (sort.Sort, which
// left the summation order of duplicate entries unspecified); the
// counting-sort Build reproduces them bit for bit. The exception is
// small/TWOTONE: its entry (203,213) is the sum of three duplicates, and
// summing them in insertion order moves it by one ulp, so that entry was
// recorded with the insertion-order Build. The file is never regenerated
// to make a change pass.
const generatorGoldenPath = "testdata/generators_golden.json"

// hashCSC hashes N, Kind, ColPtr, RowIdx and the bits of Val.
func hashCSC(a *sparse.CSC) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(a.N))
	put(uint64(a.Kind))
	for _, s := range [][]int{a.ColPtr, a.RowIdx} {
		put(uint64(len(s)))
		for _, x := range s {
			put(uint64(x))
		}
	}
	if a.Val == nil {
		put(math.MaxUint64)
	} else {
		put(uint64(len(a.Val)))
	}
	for _, v := range a.Val {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// generatorHashes hashes every problem of both suites, keyed
// "<scale>/<problem>".
func generatorHashes(t *testing.T) map[string]string {
	out := map[string]string{}
	for _, s := range []struct {
		scale string
		suite []workload.Problem
	}{{"small", workload.SmallSuite()}, {"full", workload.Suite()}} {
		for _, pb := range s.suite {
			a := pb.Matrix()
			if err := a.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", s.scale, pb.Name, err)
			}
			out[s.scale+"/"+pb.Name] = hashCSC(a)
		}
	}
	return out
}

// TestGeneratorsGolden: every Suite and SmallSuite generator builds a CSC
// whose ColPtr, RowIdx and Val are bit-identical to the recorded hashes.
func TestGeneratorsGolden(t *testing.T) {
	raw, err := os.ReadFile(generatorGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := generatorHashes(t)
	if len(got) != len(want) {
		t.Fatalf("%d generators, golden file has %d", len(got), len(want))
	}
	for k, h := range got {
		if want[k] != h {
			t.Errorf("%s: CSC differs from the golden build", k)
		}
	}
}
