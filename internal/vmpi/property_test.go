package vmpi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/des"
)

// TestPropertyChannelFIFOAnySizes: whatever the message sizes (hence
// bandwidth delays), deliveries on one (src,dst) channel preserve send
// order — large early messages never overtaken by small later ones.
func TestPropertyChannelFIFOAnySizes(t *testing.T) {
	prop := func(sizesRaw []uint32) bool {
		eng := des.New()
		w := New(eng, 2, Config{Latency: 100, BytesPerE: 8, Bandwidth: 1e6})
		var got []int
		w.Register(0, func(int, any) {})
		w.Register(1, func(_ int, p any) { got = append(got, p.(int)) })
		for i, s := range sizesRaw {
			w.Send(0, 1, int64(s%100_000), i)
		}
		eng.Run()
		if len(got) != len(sizesRaw) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyByteAccounting: Messages and Bytes aggregate exactly.
func TestPropertyByteAccounting(t *testing.T) {
	prop := func(sizesRaw []uint16) bool {
		eng := des.New()
		w := New(eng, 3, DefaultConfig())
		for r := 0; r < 3; r++ {
			w.Register(r, func(int, any) {})
		}
		var wantBytes int64
		for i, s := range sizesRaw {
			sz := int64(s % 5000)
			w.Send(i%3, (i+1)%3, sz, struct{}{})
			wantBytes += sz * w.cfg.BytesPerE
		}
		eng.Run()
		return w.Messages == int64(len(sizesRaw)) && w.Bytes == wantBytes
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(22))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestZeroLatencyZeroBandwidth: degenerate cost models (instant network,
// infinite bandwidth) still deliver everything in FIFO order.
func TestZeroLatencyZeroBandwidth(t *testing.T) {
	eng := des.New()
	w := New(eng, 2, Config{Latency: 0, BytesPerE: 8, Bandwidth: 0})
	var got []int
	w.Register(0, func(int, any) {})
	w.Register(1, func(_ int, p any) { got = append(got, p.(int)) })
	for i := 0; i < 50; i++ {
		w.Send(0, 1, 1<<40, i) // huge size: bandwidth 0 must mean "infinite"
	}
	eng.Run()
	if len(got) != 50 {
		t.Fatalf("delivered %d of 50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %d", i, v)
		}
	}
}

// TestSelfSendDelivered: a self-send is delivered (locally, next tick)
// rather than dropped or delivered synchronously mid-call.
func TestSelfSendDelivered(t *testing.T) {
	eng := des.New()
	w := New(eng, 1, DefaultConfig())
	delivered := false
	inSend := true
	w.Register(0, func(_ int, p any) {
		if inSend {
			t.Error("self-send delivered synchronously")
		}
		delivered = true
	})
	w.Send(0, 0, 0, "x")
	inSend = false
	eng.Run()
	if !delivered {
		t.Error("self-send lost")
	}
}

// TestBadRankAndMissingHandlerPanic: failure injection on the rank
// checks.
func TestBadRankAndMissingHandlerPanic(t *testing.T) {
	eng := des.New()
	w := New(eng, 2, DefaultConfig())
	w.Register(0, func(int, any) {})
	for _, f := range []func(){
		func() { w.Send(0, 5, 0, nil) },  // dst out of range
		func() { w.Send(-1, 0, 0, nil) }, // src out of range
		func() { w.Send(0, 1, 0, nil) },  // no handler on 1
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// oracleMsg is the payload of the Broadcast oracle scripts.
type oracleMsg struct{ id, hop int }

// delivery log entry of an oracle run.
type logged struct {
	t        des.Time
	src, dst int
	m        oracleMsg
}

// oracleOp is one message issued by a script at a fixed virtual time.
type oracleOp struct {
	at    des.Time
	src   int
	dst   int // -1: broadcast
	size  int64
	relay bool
}

// oracleScript is a random message pattern: several ops per instant (so
// broadcasts from one sender collide at the same time and on busy
// channels), occasional large messages that congest channels, degenerate
// latency/bandwidth, and handlers that send or broadcast again.
type oracleScript struct {
	p   int
	cfg Config
	ops []oracleOp
}

func randomScript(rng *rand.Rand) oracleScript {
	sc := oracleScript{p: 1 + rng.Intn(7)}
	sc.cfg = Config{
		Latency:   []des.Time{0, 1, 200, 20_000}[rng.Intn(4)],
		BytesPerE: 8,
		Bandwidth: []int64{0, 1e6, 20e9}[rng.Intn(3)],
	}
	for i, n := 0, rng.Intn(40); i < n; i++ {
		op := oracleOp{
			at:    des.Time(rng.Intn(4) * 100),
			src:   rng.Intn(sc.p),
			dst:   -1,
			relay: rng.Intn(3) == 0,
		}
		if rng.Intn(3) == 0 {
			op.dst = rng.Intn(sc.p)
		}
		switch rng.Intn(4) {
		case 0:
			op.size = int64(rng.Intn(200_000)) // congests the channel
		case 1:
			op.size = int64(rng.Intn(100))
		}
		sc.ops = append(sc.ops, op)
	}
	return sc
}

// run replays the script, broadcasting through Broadcast (grouped) or
// through a loop of Send to every other rank in ascending order.
func (sc oracleScript) run(grouped bool) (log []logged, messages, bytes int64) {
	eng := des.New()
	w := New(eng, sc.p, sc.cfg)
	bcast := func(src int, size int64, m oracleMsg) {
		if grouped {
			w.Broadcast(src, size, m)
			return
		}
		for dst := 0; dst < w.P; dst++ {
			if dst != src {
				w.Send(src, dst, size, m)
			}
		}
	}
	for r := 0; r < sc.p; r++ {
		r := r
		w.Register(r, func(from int, p any) {
			m := p.(oracleMsg)
			log = append(log, logged{eng.Now(), from, r, m})
			if !sc.ops[m.id].relay || m.hop >= 2 {
				return
			}
			// Relay from the receiver: a broadcast, a send to the next
			// rank and a send back, all at the delivery instant.
			next := oracleMsg{id: m.id, hop: m.hop + 1}
			bcast(r, sc.ops[m.id].size/2, next)
			w.Send(r, (r+1)%sc.p, 0, next)
			w.Send(r, from, 1, next)
		})
	}
	for i, op := range sc.ops {
		i, op := i, op
		eng.At(op.at, func() {
			if op.dst < 0 {
				bcast(op.src, op.size, oracleMsg{id: i})
			} else {
				w.Send(op.src, op.dst, op.size, oracleMsg{id: i})
			}
		})
	}
	eng.Run()
	return log, w.Messages, w.Bytes
}

// TestPropertyBroadcastMatchesLoopedSend is the oracle for the grouped
// broadcast: on random scripts it must produce exactly the delivery log
// (time, sender, receiver, payload, in delivery order) and the message and
// byte counts of a loop of Send to every other rank.
func TestPropertyBroadcastMatchesLoopedSend(t *testing.T) {
	prop := func(seed int64) bool {
		sc := randomScript(rand.New(rand.NewSource(seed)))
		gLog, gMsgs, gBytes := sc.run(true)
		lLog, lMsgs, lBytes := sc.run(false)
		if gMsgs != lMsgs || gBytes != lBytes || len(gLog) != len(lLog) {
			t.Logf("seed %d: %d msgs %d bytes %d deliveries, looped %d %d %d",
				seed, gMsgs, gBytes, len(gLog), lMsgs, lBytes, len(lLog))
			return false
		}
		for i := range gLog {
			if gLog[i] != lLog[i] {
				t.Logf("seed %d: delivery %d is %+v, looped Send gives %+v", seed, i, gLog[i], lLog[i])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestBroadcastMissingHandlerPanics: a broadcast to a rank without a
// handler panics, like the Send it replaces.
func TestBroadcastMissingHandlerPanics(t *testing.T) {
	w := New(des.New(), 3, DefaultConfig())
	w.Register(0, func(int, any) {})
	w.Register(2, func(int, any) {})
	defer func() {
		if recover() == nil {
			t.Error("no panic for a receiver without handler")
		}
	}()
	w.Broadcast(0, 0, nil)
}
