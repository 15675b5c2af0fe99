package core

import (
	"testing"

	"repro/internal/order"
	"repro/internal/workload"
)

// BenchmarkAnalyze runs the whole symbolic phase (ordering, symbolic
// factorization, assembly tree, static mapping) on the three benchmark
// matrices at full scale under AMD and ND. B/op and allocs/op guard the
// scratch-based dissection and the reused minimum-degree buffers: an
// O(N)-per-subproblem allocation shows up here as a jump of orders of
// magnitude.
func BenchmarkAnalyze(b *testing.B) {
	suite := workload.Suite()
	for _, name := range []string{"BMWCRA_1", "ULTRASOUND3", "XENON2"} {
		pb, err := workload.ByName(suite, name)
		if err != nil {
			b.Fatal(err)
		}
		a := pb.Matrix()
		for _, m := range []order.Method{order.AMD, order.ND} {
			b.Run(name+"/"+m.String(), func(b *testing.B) {
				b.ReportAllocs()
				cfg := DefaultConfig(m, 2)
				for b.Loop() {
					if _, err := Analyze(a, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
