// Package faults is the deterministic fault-injection layer of the
// execution stack. The real executors (internal/seqmf, internal/parmf,
// parmf.TreeSolver) and the out-of-core store (internal/ooc) consult an
// optional *Injector at named fault points — one Check call per task,
// spill write, spill read, block decode or solve visit — and an armed
// rule turns that call into an injected error, a delay, a short write, a
// corrupted read or a panic, on an exact hit schedule.
//
// The package exists so the fault-tolerance machinery (context
// cancellation, the OOC store's retry/degrade path, panic containment in
// the worker pools) is testable deterministically: a schedule is a pure
// function of its rules and the per-point hit counters, so the chaos
// property suite can sweep seeded schedules and assert every run either
// completes bitwise identical to the clean run or returns a descriptive
// error naming the fault point.
//
// Like trace.Tracer, a nil *Injector is valid, ignores every call and
// allocates nothing — an unarmed run pays one nil check per fault point
// (pinned at 0 allocs/op by TestNilInjectorZeroAllocs).
package faults

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Point names one instrumented fault site in the execution stack.
type Point string

// The instrumented fault points.
const (
	// SpillWrite fires in the OOC store's background writer before each
	// block write (key = node). Errors and short writes there exercise
	// the retry/degrade path.
	SpillWrite Point = "spill-write"
	// SpillRead fires once per block before each spill-file read (an
	// extent read checks every block it covers, a direct solve fetch its
	// one block; key = node). Errors there fail the whole read, which is
	// retried as a unit; KindCorrupt flips a bit of the block after it.
	SpillRead Point = "spill-read"
	// Decode fires before decoding a block read back from the spill file
	// (key = node). Decode errors are not retried — they indicate
	// corruption, not transience.
	Decode Point = "decode"
	// Task fires at the start of each front's numeric processing in the
	// executors (key = assembly-tree node).
	Task Point = "task"
	// Solve fires at each solve-phase front visit (key = node).
	Solve Point = "solve"
)

// Points lists every instrumented fault point.
func Points() []Point { return []Point{SpillWrite, SpillRead, Decode, Task, Solve} }

// Kind is what an armed rule does when it fires.
type Kind uint8

const (
	// KindError makes Check return an *InjectedError.
	KindError Kind = iota
	// KindDelay makes Check sleep the rule's Delay (default 1ms) and
	// return nil — fault-free, but it perturbs scheduling.
	KindDelay
	// KindShortWrite makes CheckWrite truncate the write length (only
	// meaningful at SpillWrite; Check treats it as a no-op).
	KindShortWrite
	// KindPanic makes Check panic with a message naming the point — the
	// executors' containment must convert it into a wrapped error.
	KindPanic
	// KindCorrupt makes CheckRead report that the caller must flip one
	// payload bit of the data it just read (only meaningful at
	// SpillRead; Check treats it as a no-op), modeling silent media
	// corruption the spill checksum has to catch.
	KindCorrupt
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindDelay:
		return "delay"
	case KindShortWrite:
		return "short-write"
	case KindPanic:
		return "panic"
	case KindCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ErrInjected is the sentinel every injected error matches with
// errors.Is, so tests and retry policies can classify them without
// string matching.
var ErrInjected = errors.New("injected fault")

// InjectedError is the error an armed KindError rule returns: it names
// the fault point, the call key (usually the assembly-tree node) and the
// hit ordinal, and matches ErrInjected.
type InjectedError struct {
	Point Point
	Key   int
	Hit   int64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("injected fault at %s (key %d, hit %d)", e.Point, e.Key, e.Hit)
}

// Is makes errors.Is(err, ErrInjected) true for injected errors.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// Rule arms one fault point: starting at the Nth hit of the point
// (1-based), the next Count hits fire with the rule's Kind.
type Rule struct {
	Point Point
	Kind  Kind
	// Nth is the first hit (1-based) that fires; 0 means 1.
	Nth int64
	// Count is how many consecutive hits fire from Nth on: 0 means 1,
	// negative means every hit from Nth onward (a persistent fault — the
	// schedule a dying disk produces).
	Count int64
	// Delay is the sleep of a KindDelay rule (0 = 1ms).
	Delay time.Duration
}

// fires reports whether the rule fires on the hit-th hit of its point.
func (r *Rule) fires(hit int64) bool {
	nth := r.Nth
	if nth <= 0 {
		nth = 1
	}
	if hit < nth {
		return false
	}
	if r.Count < 0 {
		return true
	}
	count := r.Count
	if count == 0 {
		count = 1
	}
	return hit < nth+count
}

// Stat is one point's counters: how many times it was checked and how
// many of those checks fired an armed rule.
type Stat struct {
	Point Point
	Hits  int64
	Fired int64
}

// Injector evaluates the armed rules at every fault point. All methods
// are safe for concurrent use and valid on a nil receiver (no-ops).
type Injector struct {
	mu    sync.Mutex
	rules map[Point][]Rule
	hits  map[Point]int64
	fired map[Point]int64
}

// New returns an injector armed with the given rules. No rules is valid
// (every Check passes) but callers wanting zero overhead should keep the
// injector nil instead.
func New(rules ...Rule) *Injector {
	in := &Injector{
		rules: map[Point][]Rule{},
		hits:  map[Point]int64{},
		fired: map[Point]int64{},
	}
	for _, r := range rules {
		in.rules[r.Point] = append(in.rules[r.Point], r)
	}
	return in
}

// hit advances point p's hit counter and returns the first firing rule
// (nil when none) plus the hit ordinal.
func (in *Injector) hit(p Point) (*Rule, int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.hits[p]++
	h := in.hits[p]
	rules := in.rules[p]
	for i := range rules {
		if rules[i].fires(h) {
			in.fired[p]++
			return &rules[i], h
		}
	}
	return nil, h
}

// Check evaluates point p for the given key (usually the assembly-tree
// node index). It returns an *InjectedError for a firing KindError rule,
// sleeps and returns nil for KindDelay, panics for KindPanic (the
// executors' containment converts that into a wrapped error), and
// ignores KindShortWrite and KindCorrupt (those kinds only mean something
// to CheckWrite and CheckRead).
// A nil injector returns nil without any work.
func (in *Injector) Check(p Point, key int) error {
	if in == nil {
		return nil
	}
	_, err := in.fire(p, key)
	return err
}

// fire advances point p and applies the kinds every check shares: the
// injected error of a KindError rule, the sleep of KindDelay, the panic
// of KindPanic. It returns the firing rule (nil when none) for the kinds
// only CheckWrite and CheckRead act on.
func (in *Injector) fire(p Point, key int) (*Rule, error) {
	r, h := in.hit(p)
	if r == nil {
		return nil, nil
	}
	switch r.Kind {
	case KindError:
		return r, &InjectedError{Point: p, Key: key, Hit: h}
	case KindDelay:
		d := r.Delay
		if d <= 0 {
			d = time.Millisecond
		}
		time.Sleep(d)
	case KindPanic:
		panic(fmt.Sprintf("faults: injected panic at %s (key %d, hit %d)", p, key, h))
	}
	return r, nil
}

// CheckWrite is Check for a write of n bytes at point p: a firing
// KindShortWrite rule halves the write length (never below zero, always
// strictly short for n > 0), modeling a partial write the caller must
// detect and retry; the other kinds behave as in Check. It returns the
// length the caller should write and the injected error, if any. A nil
// injector returns (n, nil).
func (in *Injector) CheckWrite(p Point, key, n int) (int, error) {
	if in == nil {
		return n, nil
	}
	r, err := in.fire(p, key)
	if err == nil && r != nil && r.Kind == KindShortWrite {
		return n / 2, nil
	}
	return n, err
}

// CheckRead is Check for a read at point p: a firing KindCorrupt rule
// returns corrupt = true, telling the caller to flip one bit of the
// payload it reads (the read itself succeeds); the other kinds behave
// as in Check. A nil injector returns (false, nil).
func (in *Injector) CheckRead(p Point, key int) (corrupt bool, err error) {
	if in == nil {
		return false, nil
	}
	r, err := in.fire(p, key)
	return err == nil && r != nil && r.Kind == KindCorrupt, err
}

// Stats returns the per-point hit/fired counters for every point that
// was checked at least once, in Points() order.
func (in *Injector) Stats() []Stat {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []Stat
	for _, p := range Points() {
		if in.hits[p] == 0 && in.fired[p] == 0 {
			continue
		}
		out = append(out, Stat{Point: p, Hits: in.hits[p], Fired: in.fired[p]})
	}
	return out
}

// Fired returns the total fired-rule count across points.
func (in *Injector) Fired() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, v := range in.fired {
		n += v
	}
	return n
}

// Parse builds an injector from a comma-separated schedule spec, the
// grammar the CLIs' -faults flag and the CI chaos smoke use:
//
//	point:kind[:nth[:count]]
//
// point is one of spill-write, spill-read, decode, task, solve; kind is
// error, delay, short-write, corrupt or panic; nth is the 1-based hit the rule
// starts firing on (default 1) and count how many consecutive hits fire
// (default 1, -1 = forever). Examples:
//
//	spill-write:error:2:3    // hits 2,3,4 of the spill writer error out
//	spill-write:error:1:-1   // every spill write fails (a dead disk)
//	task:panic:5             // the 5th task check panics once
//	solve:delay:1:-1         // every solve visit sleeps 1ms
//	spill-read:corrupt:3     // the 3rd block read back has a bit flipped
//
// An empty spec returns a nil injector (zero overhead).
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var rules []Rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 4 {
			return nil, fmt.Errorf("faults: rule %q: want point:kind[:nth[:count]]", part)
		}
		r := Rule{Point: Point(fields[0])}
		if !validPoint(r.Point) {
			return nil, fmt.Errorf("faults: rule %q: unknown point %q (want one of %s)",
				part, fields[0], pointNames())
		}
		switch fields[1] {
		case "error":
			r.Kind = KindError
		case "delay":
			r.Kind = KindDelay
		case "short-write":
			r.Kind = KindShortWrite
		case "corrupt":
			r.Kind = KindCorrupt
		case "panic":
			r.Kind = KindPanic
		default:
			return nil, fmt.Errorf("faults: rule %q: unknown kind %q (want error, delay, short-write, corrupt or panic)", part, fields[1])
		}
		if len(fields) >= 3 {
			n, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faults: rule %q: nth must be a positive integer", part)
			}
			r.Nth = n
		}
		if len(fields) == 4 {
			n, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("faults: rule %q: count must be a nonzero integer (-1 = forever)", part)
			}
			r.Count = n
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, nil
	}
	return New(rules...), nil
}

func validPoint(p Point) bool {
	for _, q := range Points() {
		if p == q {
			return true
		}
	}
	return false
}

func pointNames() string {
	names := make([]string, 0, len(Points()))
	for _, p := range Points() {
		names = append(names, string(p))
	}
	return strings.Join(names, ", ")
}
