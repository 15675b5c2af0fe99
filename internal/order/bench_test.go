package order

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// BenchmarkMinimumDegree orders the symmetrized patterns of the smallfront
// benchmark workload's three matrices (BMWCRA_1, ULTRASOUND3, XENON2) once
// per op under each minimum-degree score; the graphs are built outside the
// timer.
func BenchmarkMinimumDegree(b *testing.B) {
	suite := workload.Suite()
	var graphs []*graph.Graph
	for _, name := range []string{"BMWCRA_1", "ULTRASOUND3", "XENON2"} {
		pb, err := workload.ByName(suite, name)
		if err != nil {
			b.Fatal(err)
		}
		graphs = append(graphs, graph.FromMatrix(pb.Matrix()))
	}
	for _, sc := range []struct {
		name  string
		score ScoreFunc
	}{{"AMD", ScoreAMD}, {"AMF", ScoreAMF}} {
		b.Run(sc.name, func(b *testing.B) {
			for b.Loop() {
				for _, g := range graphs {
					MinimumDegree(g, sc.score)
				}
			}
		})
	}
}
