package parsim

import (
	"testing"

	"repro/internal/assembly"
	"repro/internal/order"
	"repro/internal/workload"
)

// BenchmarkSimulate runs the simulator over the reduced suite (AMD, 32
// simulated processors) under the memory-based and the workload strategy.
// One op simulates all eight problems; events/s counts engine events, and
// allocs/op exposes any per-message allocation on the event path.
func BenchmarkSimulate(b *testing.B) {
	type instance struct {
		tree *assembly.Tree
		mp   *assembly.Mapping
	}
	var suite []instance
	for _, pb := range workload.SmallSuite() {
		tree, _ := assembly.Analyze(pb.Matrix(), assembly.DefaultOptions(order.AMD))
		assembly.SortChildrenLiu(tree)
		suite = append(suite, instance{tree, assembly.Map(tree, assembly.DefaultMapOptions(32))})
	}
	for _, c := range []struct {
		name string
		st   Strategy
	}{{"memory", MemoryBased()}, {"workload", Workload()}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			for b.Loop() {
				for _, in := range suite {
					_, n, err := simulate(Config{Tree: in.tree, Map: in.mp, Strategy: c.st, Params: DefaultParams()})
					if err != nil {
						b.Fatal(err)
					}
					events += n
				}
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
