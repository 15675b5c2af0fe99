package des

import "testing"

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	end := e.Run()
	if end != 30 {
		t.Errorf("final time %d", end)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("order %v", got)
		}
	}
}

func TestStableTieBreaking(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("ties not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var trace []Time
	e.At(1, func() {
		trace = append(trace, e.Now())
		e.After(5, func() { trace = append(trace, e.Now()) })
		e.After(2, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	want := []Time{1, 3, 6}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
	if e.Processed() != 3 {
		t.Errorf("processed %d", e.Processed())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic for past event")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestStep(t *testing.T) {
	e := New()
	n := 0
	e.At(1, func() { n++ })
	e.At(2, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatal("first step")
	}
	if !e.Step() || n != 2 {
		t.Fatal("second step")
	}
	if e.Step() {
		t.Fatal("step on empty queue")
	}
	// Negative After clamps to now.
	e.After(-5, func() { n++ })
	e.Run()
	if n != 3 {
		t.Error("clamped event did not run")
	}
}

// TestPassedRunningKey: inside an event, Passed is true exactly for the
// keys before the running event's own, and a reserved key orders after
// it.
func TestPassedRunningKey(t *testing.T) {
	e := New()
	if e.Passed(0, 1) {
		t.Fatal("Passed(0, 1) before the first event")
	}
	e.At(5, func() {})
	e.At(5, func() {
		now, seq := e.Now(), int64(2) // the second event scheduled
		for _, c := range []struct {
			t    Time
			seq  int64
			want bool
		}{
			{now, seq, false},
			{now, seq - 1, true},
			{now, seq + 1, false},
			{now - 1, seq + 100, true},
			{now + 1, 0, false},
			{now, e.Reserve(), false},
		} {
			if got := e.Passed(c.t, c.seq); got != c.want {
				t.Errorf("Passed(%d, %d) = %v inside (%d, %d)", c.t, c.seq, got, now, seq)
			}
		}
	})
	e.Run()
}
