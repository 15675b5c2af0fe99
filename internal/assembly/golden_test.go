package assembly

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"testing"

	"repro/internal/order"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// analysisGoldenPath holds SHA-256 hashes of the permutation, the assembly
// tree and the permuted matrix that Analyze produced for every suite
// problem under every ordering before the analysis hot paths were
// rewritten (recorded on the same generator output that
// internal/sparse/testdata/generators_golden.json pins). Any change to
// ordering, symbolic analysis or pattern building must leave them matching
// bit for bit; the file is never regenerated to make a change pass.
const analysisGoldenPath = "testdata/analysis_golden.json"

// analysisGolden is one problem × ordering entry of the golden file.
type analysisGolden struct {
	Perm   string `json:"perm"`
	Tree   string `json:"tree"`
	Matrix string `json:"matrix"`
}

var goldenOrderings = []order.Method{order.AMD, order.AMF, order.ND, order.PORD, order.RCM}

func writeInts(h hash.Hash, xs ...int) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		h.Write(buf[:])
	}
}

func writeSlice(h hash.Hash, xs []int) {
	writeInts(h, len(xs))
	writeInts(h, xs...)
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// hashAnalysis hashes the three outputs of Analyze.
func hashAnalysis(t *Tree, pa *sparse.CSC) analysisGolden {
	hp := sha256.New()
	writeSlice(hp, t.Perm)

	ht := sha256.New()
	writeInts(ht, t.N, int(t.Kind), len(t.Nodes))
	writeSlice(ht, t.Roots)
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		writeInts(ht, nd.ID, nd.Parent, nd.Begin, nd.End)
		writeSlice(ht, nd.Rows)
		writeSlice(ht, nd.Children)
	}

	hm := sha256.New()
	writeInts(hm, pa.N, int(pa.Kind))
	writeSlice(hm, pa.ColPtr)
	writeSlice(hm, pa.RowIdx)
	writeInts(hm, len(pa.Val))
	if pa.Val == nil {
		writeInts(hm, -1)
	}
	for _, v := range pa.Val {
		writeInts(hm, int(math.Float64bits(v)))
	}
	return analysisGolden{Perm: sum(hp), Tree: sum(ht), Matrix: sum(hm)}
}

// goldenAnalyses analyzes every problem of the suite under every golden
// ordering, keyed "<scale>/<problem>/<ordering>".
func goldenAnalyses(scale string, suite []workload.Problem) map[string]analysisGolden {
	out := map[string]analysisGolden{}
	for _, pb := range suite {
		a := pb.Matrix()
		for _, m := range goldenOrderings {
			tree, pa := Analyze(a, DefaultOptions(m))
			out[fmt.Sprintf("%s/%s/%v", scale, pb.Name, m)] = hashAnalysis(tree, pa)
		}
	}
	return out
}

func checkAnalysisGolden(t *testing.T, scale string, suite []workload.Problem) {
	raw, err := os.ReadFile(analysisGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]analysisGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, pb := range suite {
		for _, m := range goldenOrderings {
			key := fmt.Sprintf("%s/%s/%v", scale, pb.Name, m)
			if _, ok := want[key]; !ok {
				t.Fatalf("%s: missing from %s", key, analysisGoldenPath)
			}
		}
	}
	for key, got := range goldenAnalyses(scale, suite) {
		w := want[key]
		if got.Perm != w.Perm {
			t.Errorf("%s: permutation differs from the golden analysis", key)
		}
		if got.Tree != w.Tree {
			t.Errorf("%s: assembly tree differs from the golden analysis", key)
		}
		if got.Matrix != w.Matrix {
			t.Errorf("%s: permuted matrix differs from the golden analysis", key)
		}
	}
}

// TestAnalysisGoldenSmall pins Analyze on the reduced suite × every
// ordering: permutation, tree and permuted matrix are bit-identical to the
// recorded hashes.
func TestAnalysisGoldenSmall(t *testing.T) {
	checkAnalysisGolden(t, "small", workload.SmallSuite())
}

// TestAnalysisGoldenFull is TestAnalysisGoldenSmall on the full suite.
func TestAnalysisGoldenFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite analysis under five orderings")
	}
	checkAnalysisGolden(t, "full", workload.Suite())
}
