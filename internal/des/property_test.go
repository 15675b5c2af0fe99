package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestPropertyEventsFireInTimeOrder: for arbitrary scheduling times, the
// engine delivers events in nondecreasing time order and ends at the
// latest scheduled time.
func TestPropertyEventsFireInTimeOrder(t *testing.T) {
	prop := func(offsets []uint32) bool {
		e := New()
		var fired []Time
		for _, o := range offsets {
			dt := Time(o % 1_000_000)
			e.After(dt, func() { fired = append(fired, e.Now()) })
		}
		end := e.Run()
		if len(fired) != len(offsets) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(a, b int) bool { return fired[a] < fired[b] }) {
			return false
		}
		if len(fired) > 0 && fired[len(fired)-1] != end {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyStableTiesAnyMultiset: events scheduled at identical times
// fire in scheduling order, for arbitrary multisets of times.
func TestPropertyStableTiesAnyMultiset(t *testing.T) {
	prop := func(raw []uint8) bool {
		e := New()
		var order []int
		for i, o := range raw {
			i := i
			e.After(Time(o%4), func() { order = append(order, i) })
		}
		e.Run()
		// Within each time bucket, indices must be increasing; reconstruct
		// per-event times and check.
		last := map[Time]int{}
		for _, i := range order {
			tm := Time(raw[i] % 4)
			if prev, ok := last[tm]; ok && prev > i {
				return false
			}
			last[tm] = i
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCascadedScheduling: events scheduled from within events
// still respect time order (the heap handles re-entrancy).
func TestPropertyCascadedScheduling(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		e := New()
		var fired []Time
		var spawn func(depth int, dt Time)
		spawn = func(depth int, dt Time) {
			e.After(dt, func() {
				fired = append(fired, e.Now())
				if depth > 0 {
					spawn(depth-1, dt/2+1)
				}
			})
		}
		for _, o := range raw {
			spawn(int(o%4), Time(o%1000))
		}
		e.Run()
		return sort.SliceIsSorted(fired, func(a, b int) bool { return fired[a] < fired[b] })
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulingInPastPanics is the engine's failure-injection guard.
func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.After(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

// TestPropertyHeapPopsInTimeSeqOrder checks the typed heap against a
// sorted reference: events fire exactly in (time, scheduling sequence)
// order, both for a batch scheduled up front and for events that schedule
// more events (at the current instant or later) while the heap is live.
func TestPropertyHeapPopsInTimeSeqOrder(t *testing.T) {
	type key struct {
		t   Time
		seq int
	}
	prop := func(raw []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var scheduled, fired []key
		var schedule func(at Time, depth int)
		schedule = func(at Time, depth int) {
			k := key{at, len(scheduled)}
			scheduled = append(scheduled, k)
			e.Schedule(at, Func(func() {
				fired = append(fired, k)
				for c := 0; depth > 0 && c < rng.Intn(3); c++ {
					schedule(e.Now()+Time(rng.Intn(3)), depth-1)
				}
			}))
		}
		for _, o := range raw {
			schedule(Time(o%16), int(o>>14))
		}
		e.Run()
		want := append([]key(nil), scheduled...)
		sort.Slice(want, func(a, b int) bool {
			if want[a].t != want[b].t {
				return want[a].t < want[b].t
			}
			return want[a].seq < want[b].seq
		})
		if len(fired) != len(want) || e.Processed() != int64(len(want)) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(14))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPassedMatchesScheduled: a key taken with Reserve is Passed
// exactly when an event scheduled at the same point instead would have
// run. Every event checks its keys against a twin engine that schedules
// a real marker event wherever the first one reserves a key; the two
// engines run the same script, so their events correspond one to one.
func TestPropertyPassedMatchesScheduled(t *testing.T) {
	type key struct {
		t   Time
		seq int64
	}
	prop := func(seed int64) bool {
		run := func(reserve bool) (seen []bool) {
			rng := rand.New(rand.NewSource(seed))
			e := New()
			var keys []key // reserved keys (reserve)
			var ran []bool // whether each marker event ran (!reserve)
			var body func()
			body = func() {
				for _, k := range keys {
					seen = append(seen, e.Passed(k.t, k.seq))
				}
				seen = append(seen, ran...)
				for c := rng.Intn(4); c > 0; c-- {
					at := e.Now() + Time(rng.Intn(3))
					switch {
					case rng.Intn(2) == 0 && e.Now() < 20:
						e.At(at, body)
					case reserve:
						keys = append(keys, key{at, e.Reserve()})
					default:
						k := len(ran)
						ran = append(ran, false)
						e.At(at, func() { ran[k] = true })
					}
				}
			}
			for i := 0; i < 5; i++ {
				e.At(Time(rng.Intn(3)), body)
			}
			e.Run()
			return seen
		}
		a, b := run(true), run(false)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(15))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
