package order

import (
	"math/rand"
	"testing"
)

// TestMDHeapPopsMinimumOfLiveKeys drives the indexed heap with random
// inserts, rescores (up and down) and removals, and checks every pop
// against the minimum (score, v) over the live variables.
func TestMDHeapPopsMinimumOfLiveKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		n := 1 + rng.Intn(60)
		h := mdHeap{score: make([]int64, n), pos: make([]int, n)}
		live := map[int]int64{}
		for v := range h.pos {
			h.pos[v] = -1
		}
		for step := 0; step < 400; step++ {
			v := rng.Intn(n)
			switch op := rng.Intn(4); {
			case op < 2:
				s := int64(rng.Intn(8)) // few distinct scores: many ties
				h.set(v, s)
				live[v] = s
			case op == 2:
				h.remove(v)
				delete(live, v)
			default:
				want := -1
				for u, s := range live {
					if want < 0 || s < live[want] || s == live[want] && u < want {
						want = u
					}
				}
				if got := h.pop(); got != want {
					t.Fatalf("round %d step %d: pop %d, want %d", round, step, got, want)
				}
				delete(live, want)
			}
			if len(h.items) != len(live) {
				t.Fatalf("round %d step %d: heap holds %d, %d live", round, step, len(h.items), len(live))
			}
		}
	}
}
