package vmpi

import (
	"testing"

	"repro/internal/des"
)

func newWorld(p int, cfg Config) (*des.Engine, *World) {
	e := des.New()
	w := New(e, p, cfg)
	return e, w
}

func TestSendLatency(t *testing.T) {
	e, w := newWorld(2, Config{Latency: 100, BytesPerE: 8, Bandwidth: 0})
	var at des.Time = -1
	w.Register(1, func(from int, payload any) {
		at = e.Now()
		if from != 0 || payload.(string) != "hi" {
			t.Errorf("bad delivery: %d %v", from, payload)
		}
	})
	w.Register(0, func(int, any) {})
	w.Send(0, 1, 0, "hi")
	e.Run()
	if at != 100 {
		t.Errorf("delivered at %d, want 100", at)
	}
	if w.Messages != 1 {
		t.Errorf("message count %d", w.Messages)
	}
}

func TestBandwidthCost(t *testing.T) {
	// 1000 entries * 8 B at 8e9 B/s = 1000ns, plus 50ns latency.
	e, w := newWorld(2, Config{Latency: 50, BytesPerE: 8, Bandwidth: 8e9})
	var at des.Time
	w.Register(1, func(int, any) { at = e.Now() })
	w.Register(0, func(int, any) {})
	w.Send(0, 1, 1000, nil)
	e.Run()
	if at != 1050 {
		t.Errorf("delivered at %d, want 1050", at)
	}
	if w.Bytes != 8000 {
		t.Errorf("bytes %d", w.Bytes)
	}
}

func TestChannelFIFO(t *testing.T) {
	// A big message followed by a small one on the same channel must not be
	// overtaken.
	e, w := newWorld(2, Config{Latency: 10, BytesPerE: 8, Bandwidth: 8e9})
	var got []int
	w.Register(1, func(_ int, p any) { got = append(got, p.(int)) })
	w.Register(0, func(int, any) {})
	w.Send(0, 1, 100000, 1) // slow
	w.Send(0, 1, 0, 2)      // fast, would arrive earlier without FIFO
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("order %v", got)
	}
}

func TestBroadcast(t *testing.T) {
	e, w := newWorld(4, DefaultConfig())
	got := map[int]bool{}
	for r := 0; r < 4; r++ {
		r := r
		w.Register(r, func(from int, _ any) {
			if from != 2 {
				t.Errorf("from %d", from)
			}
			got[r] = true
		})
	}
	w.Broadcast(2, 0, "x")
	e.Run()
	if got[2] {
		t.Error("broadcast delivered to sender")
	}
	if !got[0] || !got[1] || !got[3] {
		t.Errorf("missing deliveries: %v", got)
	}
}

func TestSelfSend(t *testing.T) {
	e, w := newWorld(1, DefaultConfig())
	n := 0
	w.Register(0, func(int, any) { n++ })
	w.Send(0, 0, 1000, nil)
	e.Run()
	if n != 1 {
		t.Error("self message lost")
	}
	if e.Now() != 0 {
		t.Errorf("self message should cost no time, now=%d", e.Now())
	}
}

func TestBadRankPanics(t *testing.T) {
	_, w := newWorld(2, DefaultConfig())
	w.Register(0, func(int, any) {})
	defer func() {
		if recover() == nil {
			t.Error("no panic on bad rank")
		}
	}()
	w.Send(0, 5, 0, nil)
}

// TestSteadyStateZeroAllocs: once the recycled deliveries exist, neither
// Broadcast nor Send allocates per message — no closure, no heap boxing.
func TestSteadyStateZeroAllocs(t *testing.T) {
	e, w := newWorld(32, DefaultConfig())
	for r := 0; r < 32; r++ {
		w.Register(r, func(int, any) {})
	}
	round := func() {
		w.Broadcast(0, 0, nil)
		w.Broadcast(0, 10, nil) // same instant: busy channels, a second time
		w.Send(1, 2, 0, nil)
		w.Send(3, 3, 0, nil)
		e.Run()
	}
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("%.1f allocations per round of 2 broadcasts + 2 sends", allocs)
	}
}
