package ooc

import (
	"testing"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/front"
	"repro/internal/order"
	"repro/internal/workload"
)

// BenchmarkSpillWrite spills the factor blocks of a real analysed tree
// (each small-suite problem under ND, the blocks extracted from one
// scratch front): one op is a store's whole write path — bind, a Put
// per node in postorder, Flush, Close. Its allocs/op and B/op are what
// the write path allocates per factorization; per-node garbage would
// make them grow with the node count.
func BenchmarkSpillWrite(b *testing.B) {
	for _, name := range []string{"BMWCRA_1", "PRE2"} {
		p, err := workload.ByName(workload.SmallSuite(), name)
		if err != nil {
			b.Fatal(err)
		}
		tree, _ := assembly.Analyze(p.Matrix(), assembly.DefaultOptions(order.ND))
		lay, post := front.NewLayout(tree, tree.Kind), tree.Postorder()
		var most int
		for ni := range tree.Nodes {
			most = max(most, tree.Nodes[ni].NFront())
		}
		scratch := make([]float64, most*most)
		for i := range scratch {
			scratch[i] = float64(i % 97)
		}
		dir := b.TempDir()
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				s, err := NewFileStore(Options{Dir: dir, BufferEntries: 4096})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Bind(lay, nil); err != nil {
					b.Fatal(err)
				}
				for _, ni := range post {
					nd := &tree.Nodes[ni]
					nf := nd.NFront()
					fr := &dense.Matrix{R: nf, C: nf, A: scratch[:nf*nf]}
					if err := s.Put(ni, fr, assembly.FactorEntries(nd, tree.Kind)); err != nil {
						b.Fatal(err)
					}
				}
				if err := s.Flush(); err != nil {
					b.Fatal(err)
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tree.Len()), "nodes/op")
		})
	}
}
