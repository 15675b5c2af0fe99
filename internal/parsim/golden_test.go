package parsim

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/assembly"
	"repro/internal/order"
	"repro/internal/workload"
)

// goldenPath holds the full Result of every goldenCases run, recorded from
// the simulator as it was before broadcasts were grouped into one event per
// delivery time. Any change to the event path must leave it matching bit
// for bit; it is never regenerated to make a change pass.
const goldenPath = "testdata/golden_results.json"

// goldenStrategies are the strategy/machine variants the golden file pins:
// the three named strategies, the subtree-peak-first initial order, and a
// zero-latency network (every view publication of one instant arrives at
// the same time, the densest same-time delivery case).
func goldenStrategies() []struct {
	name string
	st   Strategy
	par  Params
} {
	peakFirst := MemoryBased()
	peakFirst.SubtreeOrder = SubtreePeakDescending
	zeroLat := DefaultParams()
	zeroLat.Comm.Latency = 0
	return []struct {
		name string
		st   Strategy
		par  Params
	}{
		{"workload", Workload(), DefaultParams()},
		{"memory", MemoryBased(), DefaultParams()},
		{"hybrid", Hybrid(), DefaultParams()},
		{"peakfirst", peakFirst, DefaultParams()},
		{"zerolat", MemoryBased(), zeroLat},
	}
}

// goldenCases runs SmallSuite × {AMD, ND} × P ∈ {2, 8, 32} × the golden
// strategies and returns every Result keyed by case name.
func goldenCases(t *testing.T) map[string]*Result {
	t.Helper()
	out := map[string]*Result{}
	for _, pb := range workload.SmallSuite() {
		a := pb.Matrix()
		for _, m := range []order.Method{order.AMD, order.ND} {
			tree, _ := assembly.Analyze(a, assembly.DefaultOptions(m))
			assembly.SortChildrenLiu(tree)
			for _, p := range []int{2, 8, 32} {
				mp := assembly.Map(tree, assembly.DefaultMapOptions(p))
				for _, g := range goldenStrategies() {
					key := fmt.Sprintf("%s/%v/P%d/%s", pb.Name, m, p, g.name)
					res, err := Run(Config{Tree: tree, Map: mp, Strategy: g.st, Params: g.par})
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					out[key] = res
				}
			}
		}
	}
	return out
}

// TestGoldenResults pins every field of Result on the golden cases.
func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite runs 240 simulations")
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]*Result
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := goldenCases(t)
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden file has %d", len(got), len(want))
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: missing from golden file", k)
			continue
		}
		if !reflect.DeepEqual(got[k], w) {
			t.Errorf("%s:\n got  %+v\n want %+v", k, *got[k], *w)
		}
	}
}
