package vmpi

import (
	"fmt"
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

// oracleMsg is the payload of the oracle scripts' real messages.
type oracleMsg struct{ id, hop int }

// pubDelta is a publication sent as a plain message, in the looped run.
type pubDelta struct{ delta int64 }

// pubState is the state the oracle scripts publish: the sum of the
// publisher's deltas and the number of its publications, so a read that
// sees a stale or a too-new publication differs in n.
type pubState struct {
	sum int64
	n   int
}

// logged is a real-message delivery of an oracle run.
type logged struct {
	t        des.Time
	src, dst int
	m        oracleMsg
}

// readLog is what one reader saw of one publisher at one instant.
type readLog struct {
	t           des.Time
	src, reader int
	st          pubState
}

// oracle op kinds.
const (
	opSend = iota
	opBroadcast
	opPublish
	opRead
)

// oracleOp is one action a script takes at a fixed virtual time.
type oracleOp struct {
	at    des.Time
	kind  int
	src   int   // sender, publisher or reader
	dst   int   // opSend
	size  int64 // message size in entries
	delta int64 // opPublish
	relay bool  // opSend, opBroadcast: receivers act again (see run)
}

// oracleScript is a message pattern: several ops per instant (so
// broadcasts and publications from one sender collide at the same time
// and on busy channels), large messages that congest channels, degenerate
// latency/bandwidth, and handlers that send, broadcast, publish and read
// again.
type oracleScript struct {
	p   int
	cfg Config
	ops []oracleOp
}

// decodeScript builds a script from arbitrary bytes: two header bytes
// pick the rank count and the network, then every four bytes are an op.
// Every input decodes to a valid script, so it also serves the fuzzer.
func decodeScript(data []byte) oracleScript {
	var sc oracleScript
	if len(data) < 2 {
		data = append(append([]byte(nil), data...), 0, 0) // not in the caller's array
	}
	sc.p = 1 + int(data[0]%8)
	sc.cfg = Config{
		Latency:   []des.Time{0, 1, 200, 20_000}[data[1]%4],
		BytesPerE: 8,
		Bandwidth: []int64{0, 1e6, 20e9}[data[1]/4%3],
	}
	for data = data[2:]; len(data) >= 4 && len(sc.ops) < 64; data = data[4:] {
		op := oracleOp{
			kind:  int(data[0] % 4),
			relay: data[0]&0x80 != 0,
			at:    des.Time(data[1]%4) * 100,
			src:   int(data[1]/4) % sc.p,
			dst:   int(data[2]) % sc.p,
			delta: int64(int8(data[2])),
		}
		switch data[3] % 4 {
		case 0:
			op.size = int64(data[3]) * 800 // congests the channel
		case 1:
			op.size = int64(data[3] % 100)
		}
		sc.ops = append(sc.ops, op)
	}
	return sc
}

func randomScript(rng *rand.Rand) oracleScript {
	data := make([]byte, 2+4*rng.Intn(41))
	rng.Read(data)
	return decodeScript(data)
}

// oracleRun is everything a script run observes.
type oracleRun struct {
	log             []logged
	reads           []readLog
	messages, bytes int64
	end             des.Time // when the last message arrived
}

// run replays the script. With grouped set it broadcasts through
// Broadcast and publishes on a Board; otherwise both become a loop of
// Send to every other rank in ascending order, and each receiver folds
// the publication messages it is handed into its own copy of the
// publisher's state — the eager delivery the Board must be equal to.
func (sc oracleScript) run(grouped bool) oracleRun {
	var out oracleRun
	eng := des.New()
	w := New(eng, sc.p, sc.cfg)
	board := NewBoard[pubState](w)
	own := make([]pubState, sc.p)      // what each rank has published
	folded := make([][]pubState, sc.p) // looped: [reader][src]
	for r := range folded {
		folded[r] = make([]pubState, sc.p)
	}
	loop := func(src int, size int64, payload any) {
		for dst := 0; dst < w.P; dst++ {
			if dst != src {
				w.Send(src, dst, size, payload)
			}
		}
	}
	bcast := func(src int, size int64, m oracleMsg) {
		if grouped {
			w.Broadcast(src, size, m)
		} else {
			loop(src, size, m)
		}
	}
	publish := func(src int, size, delta int64) {
		own[src].sum += delta
		own[src].n++
		if grouped {
			board.Publish(src, size, own[src])
		} else {
			loop(src, size, pubDelta{delta})
		}
	}
	read := func(reader int) {
		for src := 0; src < sc.p; src++ {
			if src == reader {
				continue
			}
			st := folded[reader][src]
			if grouped {
				st = board.Read(src, reader)
			}
			out.reads = append(out.reads, readLog{eng.Now(), src, reader, st})
		}
	}
	for r := 0; r < sc.p; r++ {
		r := r
		w.Register(r, func(from int, p any) {
			if d, ok := p.(pubDelta); ok {
				folded[r][from].sum += d.delta
				folded[r][from].n++
				return
			}
			m := p.(oracleMsg)
			out.log = append(out.log, logged{eng.Now(), from, r, m})
			op := sc.ops[m.id]
			if !op.relay || m.hop >= 2 {
				return
			}
			// Relay from the receiver, all at the delivery instant: a
			// read, a publication, a broadcast, a send to the next rank,
			// a send back and a second read.
			next := oracleMsg{id: m.id, hop: m.hop + 1}
			read(r)
			publish(r, op.size/4, int64(m.id+1))
			bcast(r, op.size/2, next)
			w.Send(r, (r+1)%sc.p, 0, next)
			w.Send(r, from, 1, next)
			read(r)
		})
	}
	for i, op := range sc.ops {
		i, op := i, op
		eng.At(op.at, func() {
			switch op.kind {
			case opSend:
				w.Send(op.src, op.dst, op.size, oracleMsg{id: i})
			case opBroadcast:
				bcast(op.src, op.size, oracleMsg{id: i})
			case opPublish:
				publish(op.src, op.size, op.delta)
			case opRead:
				read(op.src)
			}
		})
	}
	eng.Run()
	out.messages, out.bytes = w.Messages, w.Bytes
	out.end = max(eng.Now(), w.LastArrival())
	return out
}

// checkOracle runs sc both ways and reports the first difference: the
// grouped broadcasts and the board must give exactly the deliveries (time,
// sender, receiver, payload, in delivery order), the reads, the message
// and byte counts and the end time of a loop of Send to every other rank.
func checkOracle(sc oracleScript) string {
	g, l := sc.run(true), sc.run(false)
	switch {
	case g.messages != l.messages || g.bytes != l.bytes || g.end != l.end:
		return fmt.Sprintf("%d msgs %d bytes end %d, looped %d %d %d",
			g.messages, g.bytes, g.end, l.messages, l.bytes, l.end)
	case len(g.log) != len(l.log) || len(g.reads) != len(l.reads):
		return fmt.Sprintf("%d deliveries %d reads, looped %d %d", len(g.log), len(g.reads), len(l.log), len(l.reads))
	}
	for i := range g.log {
		if g.log[i] != l.log[i] {
			return fmt.Sprintf("delivery %d is %+v, looped Send gives %+v", i, g.log[i], l.log[i])
		}
	}
	for i := range g.reads {
		if g.reads[i] != l.reads[i] {
			return fmt.Sprintf("read %d is %+v, folded looped Sends give %+v", i, g.reads[i], l.reads[i])
		}
	}
	return ""
}

// TestPropertyBroadcastMatchesLoopedSend is the oracle for the grouped
// broadcast and the board, on random scripts (see checkOracle).
func TestPropertyBroadcastMatchesLoopedSend(t *testing.T) {
	prop := func(seed int64) bool {
		if diff := checkOracle(randomScript(rand.New(rand.NewSource(seed)))); diff != "" {
			t.Logf("seed %d: %s", seed, diff)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzPublish drives the same oracle from fuzzed scripts (decodeScript).
// Its seed corpus in testdata/fuzz/FuzzPublish covers a zero-latency
// burst, channels congested by large sends and two relaying ranks.
func FuzzPublish(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if diff := checkOracle(decodeScript(data)); diff != "" {
			t.Fatal(diff)
		}
	})
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
