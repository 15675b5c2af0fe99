package faults

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestNilInjectorNoOp(t *testing.T) {
	var in *Injector
	if err := in.Check(Task, 3); err != nil {
		t.Fatalf("nil injector Check: %v", err)
	}
	if n, err := in.CheckWrite(SpillWrite, 0, 100); n != 100 || err != nil {
		t.Fatalf("nil injector CheckWrite: n=%d err=%v", n, err)
	}
	if s := in.Stats(); s != nil {
		t.Fatalf("nil injector Stats: %v", s)
	}
	if f := in.Fired(); f != 0 {
		t.Fatalf("nil injector Fired: %d", f)
	}
}

func TestNilInjectorZeroAllocs(t *testing.T) {
	var in *Injector
	allocs := testing.AllocsPerRun(100, func() {
		if err := in.Check(Task, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := in.CheckWrite(SpillWrite, 7, 64); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("nil injector: %v allocs/op, want 0", allocs)
	}
}

func TestErrorSchedule(t *testing.T) {
	// Hits 2,3,4 fire; 1 and 5+ pass.
	in := New(Rule{Point: Task, Kind: KindError, Nth: 2, Count: 3})
	var fired []int
	for hit := 1; hit <= 6; hit++ {
		if err := in.Check(Task, hit*10); err != nil {
			fired = append(fired, hit)
			var ie *InjectedError
			if !errors.As(err, &ie) {
				t.Fatalf("hit %d: error %T is not *InjectedError", hit, err)
			}
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: error does not match ErrInjected", hit)
			}
			if ie.Point != Task || ie.Key != hit*10 || ie.Hit != int64(hit) {
				t.Fatalf("hit %d: got %+v", hit, ie)
			}
			if !strings.Contains(err.Error(), "task") {
				t.Fatalf("hit %d: error %q does not name the point", hit, err)
			}
		}
	}
	if len(fired) != 3 || fired[0] != 2 || fired[2] != 4 {
		t.Fatalf("fired on hits %v, want [2 3 4]", fired)
	}
	// Other points are independent.
	if err := in.Check(Solve, 0); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
}

func TestPersistentSchedule(t *testing.T) {
	in := New(Rule{Point: SpillWrite, Kind: KindError, Nth: 3, Count: -1})
	for hit := 1; hit <= 10; hit++ {
		err := in.Check(SpillWrite, 0)
		if hit < 3 && err != nil {
			t.Fatalf("hit %d fired early: %v", hit, err)
		}
		if hit >= 3 && err == nil {
			t.Fatalf("hit %d: persistent rule did not fire", hit)
		}
	}
	if got := in.Fired(); got != 8 {
		t.Fatalf("Fired() = %d, want 8", got)
	}
}

func TestShortWrite(t *testing.T) {
	in := New(Rule{Point: SpillWrite, Kind: KindShortWrite})
	n, err := in.CheckWrite(SpillWrite, 5, 100)
	if err != nil || n != 50 {
		t.Fatalf("short write: n=%d err=%v, want 50 nil", n, err)
	}
	// Only the first hit fires (Count defaults to 1).
	n, err = in.CheckWrite(SpillWrite, 5, 100)
	if err != nil || n != 100 {
		t.Fatalf("second write: n=%d err=%v, want 100 nil", n, err)
	}
	// Check ignores KindShortWrite but still counts the hit.
	in2 := New(Rule{Point: SpillWrite, Kind: KindShortWrite})
	if err := in2.Check(SpillWrite, 0); err != nil {
		t.Fatalf("Check on short-write rule: %v", err)
	}
}

func TestPanicKind(t *testing.T) {
	in := New(Rule{Point: Task, Kind: KindPanic})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "task") || !strings.Contains(msg, "key 42") {
			t.Fatalf("panic %v does not name point and key", r)
		}
	}()
	in.Check(Task, 42)
}

func TestDelayKind(t *testing.T) {
	in := New(Rule{Point: Solve, Kind: KindDelay, Delay: 5 * time.Millisecond})
	t0 := time.Now()
	if err := in.Check(Solve, 0); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 5*time.Millisecond {
		t.Fatalf("delay rule slept %v, want >= 5ms", d)
	}
}

func TestStats(t *testing.T) {
	in := New(Rule{Point: Task, Kind: KindError, Nth: 2})
	in.Check(Task, 0)
	in.Check(Task, 0)
	in.Check(Solve, 0)
	stats := in.Stats()
	if len(stats) != 2 {
		t.Fatalf("Stats() = %+v, want 2 points", stats)
	}
	// Points() order: solve after task.
	if stats[0].Point != Task || stats[0].Hits != 2 || stats[0].Fired != 1 {
		t.Fatalf("task stat %+v", stats[0])
	}
	if stats[1].Point != Solve || stats[1].Hits != 1 || stats[1].Fired != 0 {
		t.Fatalf("solve stat %+v", stats[1])
	}
}

func TestParse(t *testing.T) {
	in, err := Parse(" spill-write:error:2:3 , task:panic:5 , solve:delay:1:-1 ")
	if err != nil {
		t.Fatal(err)
	}
	if in == nil {
		t.Fatal("nil injector for non-empty spec")
	}
	if len(in.rules[SpillWrite]) != 1 || len(in.rules[Task]) != 1 || len(in.rules[Solve]) != 1 {
		t.Fatalf("rules: %+v", in.rules)
	}
	r := in.rules[SpillWrite][0]
	if r.Kind != KindError || r.Nth != 2 || r.Count != 3 {
		t.Fatalf("spill-write rule %+v", r)
	}
	if in.rules[Solve][0].Count != -1 {
		t.Fatalf("solve rule %+v", in.rules[Solve][0])
	}
}

func TestParseEmpty(t *testing.T) {
	for _, spec := range []string{"", "  ", ","} {
		in, err := Parse(spec)
		if err != nil || in != nil {
			t.Fatalf("Parse(%q) = %v, %v; want nil, nil", spec, in, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"task",             // missing kind
		"task:error:1:1:1", // too many fields
		"bogus:error",      // unknown point
		"task:explode",     // unknown kind
		"task:error:0",     // nth must be >= 1
		"task:error:-2",    // nth must be >= 1
		"task:error:1:0",   // count must be nonzero
		"task:error:x",     // non-numeric nth
		"task:error:1:y",   // non-numeric count
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): no error", spec)
		}
	}
}

func TestConcurrentChecks(t *testing.T) {
	in := New(Rule{Point: Task, Kind: KindError, Nth: 1, Count: -1})
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				if err := in.Check(Task, i); err == nil {
					t.Error("persistent rule did not fire")
					return
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if got := in.Fired(); got != 800 {
		t.Fatalf("Fired() = %d, want 800", got)
	}
	close(done)
}

func TestCorruptKind(t *testing.T) {
	in := New(Rule{Point: SpillRead, Kind: KindCorrupt, Nth: 2})
	for hit, want := range []bool{false, true, false} {
		corrupt, err := in.CheckRead(SpillRead, 7)
		if err != nil || corrupt != want {
			t.Fatalf("hit %d: corrupt=%v err=%v, want %v nil", hit+1, corrupt, err, want)
		}
	}
	// Check ignores KindCorrupt but still counts the hit.
	in2 := New(Rule{Point: SpillRead, Kind: KindCorrupt})
	if err := in2.Check(SpillRead, 0); err != nil {
		t.Fatalf("Check on corrupt rule: %v", err)
	}
	if in2.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", in2.Fired())
	}
	// CheckRead reports the other kinds as Check does.
	in3 := New(Rule{Point: SpillRead, Kind: KindError})
	if corrupt, err := in3.CheckRead(SpillRead, 3); corrupt || !errors.Is(err, ErrInjected) {
		t.Fatalf("CheckRead on error rule: corrupt=%v err=%v", corrupt, err)
	}
	p, err := Parse("spill-read:corrupt:4")
	if err != nil || p.rules[SpillRead][0].Kind != KindCorrupt || p.rules[SpillRead][0].Nth != 4 {
		t.Fatalf("Parse corrupt rule: %v %+v", err, p)
	}
}
