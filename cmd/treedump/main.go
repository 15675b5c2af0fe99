// Command treedump prints the assembly tree of a matrix with its static
// mapping: node types (T1/T2/T3), owning processors and subtree
// boundaries — a textual version of the paper's Figure 2. With -dot it
// emits Graphviz instead.
//
// Usage:
//
//	treedump -matrix NAME [-ordering METIS] [-procs P] [-depth D] [-dot]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/assembly"
	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("treedump: ")
	name := flag.String("matrix", "SHIP_003", "suite problem name")
	ordering := flag.String("ordering", "METIS", "fill-reducing ordering")
	procs := flag.Int("procs", 4, "processor count")
	depth := flag.Int("depth", 4, "max depth to print (text mode)")
	dot := flag.Bool("dot", false, "emit Graphviz dot")
	flag.Parse()

	p, err := workload.ByName(workload.Suite(), *name)
	if err != nil {
		log.Fatal(err)
	}
	m, err := order.Parse(strings.ToUpper(*ordering))
	if err != nil {
		log.Fatal(err)
	}
	an, err := core.Analyze(p.Matrix(), core.DefaultConfig(m, *procs))
	if err != nil {
		log.Fatal(err)
	}
	t, mp := an.Tree, an.Mapping

	if *dot {
		fmt.Println("digraph assembly {")
		fmt.Println("  rankdir=BT; node [shape=box];")
		for i := range t.Nodes {
			nd := &t.Nodes[i]
			label := fmt.Sprintf("%d\\n%v P%d\\nfront %d piv %d",
				i, mp.Types[i], mp.Proc[i], nd.NFront(), nd.NPiv())
			style := ""
			if mp.Subtree[i] >= 0 {
				style = ` style=filled fillcolor="lightgrey"`
			}
			fmt.Printf("  n%d [label=\"%s\"%s];\n", i, label, style)
			if nd.Parent >= 0 {
				fmt.Printf("  n%d -> n%d;\n", i, nd.Parent)
			}
		}
		fmt.Println("}")
		return
	}

	fmt.Printf("%s / %s on %d processors: %d fronts, %d subtrees\n",
		*name, m, *procs, t.Len(), len(mp.SubRoot))
	var walk func(n, d int)
	walk = func(n, d int) {
		nd := &t.Nodes[n]
		indent := strings.Repeat("  ", d)
		tag := ""
		if s := mp.Subtree[n]; s >= 0 {
			tag = fmt.Sprintf(" [subtree %d]", s)
			if mp.SubRoot[s] == n {
				tag = fmt.Sprintf(" [subtree %d root: %d nodes below, peak %d]",
					s, subtreeSize(t, n), mp.SubPeak[s])
			}
		}
		fmt.Printf("%s%d: %v P%-2d front=%d piv=%d cb=%d%s\n",
			indent, n, mp.Types[n], mp.Proc[n], nd.NFront(), nd.NPiv(), nd.NCB(), tag)
		if d >= *depth {
			if len(nd.Children) > 0 {
				fmt.Printf("%s  ... %d children elided\n", indent, len(nd.Children))
			}
			return
		}
		if s := mp.Subtree[n]; s >= 0 && mp.SubRoot[s] == n {
			return // don't descend into subtrees
		}
		for _, c := range nd.Children {
			walk(c, d+1)
		}
	}
	for _, r := range t.Roots {
		walk(r, 0)
	}
}

func subtreeSize(t *assembly.Tree, root int) int {
	n := 0
	stack := []int{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n++
		stack = append(stack, t.Nodes[v].Children...)
	}
	return n
}
