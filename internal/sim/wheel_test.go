package sim

import (
	"fmt"
	"testing"
)

// TestWheelCrossBucketOrdering schedules events across many level-0
// buckets, interleaved with same-instant pairs, and checks global order
// plus FIFO within instants once buckets drain through the near heap.
func TestWheelCrossBucketOrdering(t *testing.T) {
	e := NewEngine()
	var fired []int
	// Spread over ~40 buckets (bucket width is 16.384us).
	for i := 0; i < 40; i++ {
		i := i
		at := Time(i) * 17 * Microsecond
		e.PostRun(at, runFunc(func(Time) { fired = append(fired, 2*i) }))
		e.PostRun(at, runFunc(func(Time) { fired = append(fired, 2*i+1) })) // same instant, FIFO after
	}
	e.Run(0)
	if len(fired) != 80 {
		t.Fatalf("fired %d events, want 80", len(fired))
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("fired[%d] = %d, want %d (order: %v)", i, v, i, fired)
		}
	}
}

// TestWheelFarFuture mixes events beyond the wheel's ~275s reach with
// near-term ones and checks they fire in time order with the clock
// matching each scheduled instant.
func TestWheelFarFuture(t *testing.T) {
	e := NewEngine()
	times := []Time{
		3 * Microsecond,
		400 * Second, // beyond wheel reach: far heap
		2 * Millisecond,
		90 * Second, // level 2
		300 * Millisecond,
		401 * Second,
		400*Second + 1, // same far bucket region, distinct instant
	}
	var fired []Time
	for _, at := range times {
		at := at
		e.PostRun(at, runFunc(func(now Time) {
			if now != at {
				t.Fatalf("event for %v fired at %v", at, now)
			}
			fired = append(fired, at)
		}))
	}
	e.Run(0)
	want := []Time{3 * Microsecond, 2 * Millisecond, 300 * Millisecond, 90 * Second, 400 * Second, 400*Second + 1, 401 * Second}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired[%d] = %v, want %v", i, fired[i], want[i])
		}
	}
}

// TestWheelCancelInBucket cancels a wheel-resident event (which is
// marked dead in place, not unlinked) and checks Pending drops
// immediately, the event never fires, and the bucket's surviving
// resident still does.
func TestWheelCancelInBucket(t *testing.T) {
	e := NewEngine()
	fired := 0
	ev := &Event{}
	e.Arm(ev, 10*Millisecond, runFunc(func(Time) { t.Fatal("cancelled event fired") }))
	e.PostRun(10*Millisecond+1, runFunc(func(Time) { fired++ }))
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending after cancel = %d, want 1 (must be exact for lazily-reclaimed nodes)", e.Pending())
	}
	if e.Cancel(ev) {
		t.Fatal("second Cancel returned true")
	}
	e.Run(0)
	if fired != 1 {
		t.Fatalf("surviving bucket resident fired %d times, want 1", fired)
	}
}

// TestWheelSpanBoundaryCascade is the regression test for a subtle
// advance() bug: draining the last level-0 bucket of a level-1 span
// lands the horizon exactly on the next span's start without passing
// through the span-step path, so cascades keyed off stepping alone never
// pulled that span's level-1 bucket down — its residents fired a whole
// wheel lap late (and therefore out of order).
func TestWheelSpanBoundaryCascade(t *testing.T) {
	e := NewEngine()
	var fired []Time
	rec := func(at Time) Runner {
		return runFunc(func(now Time) {
			if now != at {
				t.Fatalf("event for %v fired at %v", at, now)
			}
			fired = append(fired, at)
		})
	}
	// A sits in the last level-0 bucket of level-1 span 0: draining it
	// sets horizon = exactly the span-1 boundary.
	a := Time(wheelSlots)<<bucketShift - 1
	// B lands in level-1 slot 1 when scheduled at t=0.
	b := Time(wheelSlots+10)<<bucketShift + 5
	// D is far enough out that, with span 1's level-1 bucket skipped, it
	// would fire before B — the out-of-order symptom.
	d := Time(3*wheelSlots) << bucketShift
	e.PostRun(a, rec(a))
	e.PostRun(b, rec(b))
	e.PostRun(d, rec(d))
	e.Run(0)
	want := []Time{a, b, d}
	if len(fired) != 3 || fired[0] != a || fired[1] != b || fired[2] != d {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

// chainRunner re-arms its own event until n reaches 0.
type chainRunner struct {
	e  *Engine
	ev Event
	n  int
	d  Duration
}

func (c *chainRunner) RunAt(now Time) {
	c.n--
	if c.n > 0 {
		c.e.Arm(&c.ev, now+c.d, c)
	}
}

// TestArmZeroEventAndReuse arms a zero Event in place, lets it fire and
// re-arm itself repeatedly, and checks cancellation of an armed handle.
func TestArmZeroEventAndReuse(t *testing.T) {
	e := NewEngine()
	c := &chainRunner{e: e, n: 50, d: 100 * Microsecond}
	if c.ev.Scheduled() {
		t.Fatal("zero Event reports scheduled")
	}
	e.Arm(&c.ev, 0, c)
	if !c.ev.Scheduled() {
		t.Fatal("armed Event reports unscheduled")
	}
	e.Run(0)
	if c.n != 0 {
		t.Fatalf("chain stopped at n=%d, want 0", c.n)
	}
	if c.ev.Scheduled() {
		t.Fatal("Event still scheduled after chain finished")
	}
	// Re-arm the fired handle, then cancel through it.
	e.Arm(&c.ev, e.Now()+Millisecond, c)
	if !e.Cancel(&c.ev) {
		t.Fatal("Cancel of re-armed event returned false")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after cancel, want 0", e.Pending())
	}
}

// TestEngineSteadyStateAllocFree proves the engine allocates nothing once the node slab and pools are warm: a self-re-arming timer
// chain driven through Arm on a preallocated receiver.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	c := &chainRunner{e: e, d: 50 * Microsecond}
	// Warm the node slab.
	c.n = 200
	e.Arm(&c.ev, e.Now(), c)
	e.Run(0)
	allocs := testing.AllocsPerRun(10, func() {
		c.n = 1000
		e.Arm(&c.ev, e.Now(), c)
		e.Run(0)
	})
	if allocs > 0 {
		t.Fatalf("steady-state engine loop allocates %.1f objects per 1000 events, want 0", allocs)
	}
}

// TestEngineHeapMatchesWheelSimple runs the same nested schedule on the
// wheel engine and the heap oracle and requires identical fire logs —
// the cheap always-on cousin of FuzzEngineDifferential.
func TestEngineHeapMatchesWheelSimple(t *testing.T) {
	run := func(e *Engine) []string {
		var log []string
		var step func(depth int, base Duration)
		step = func(depth int, base Duration) {
			if depth > 6 {
				return
			}
			e.PostRunAfter(base, runFunc(func(now Time) {
				log = append(log, fmt.Sprintf("%d@%d", depth, now))
				step(depth+1, base*7)
				step(depth+1, base*3+1)
			}))
		}
		step(0, 1)
		step(0, 40*Millisecond)
		step(0, 100*Second)
		e.Run(0)
		return log
	}
	w := run(NewEngine())
	h := run(NewEngineHeap())
	if len(w) != len(h) {
		t.Fatalf("wheel fired %d events, heap %d", len(w), len(h))
	}
	for i := range w {
		if w[i] != h[i] {
			t.Fatalf("divergence at event %d: wheel %q, heap %q", i, w[i], h[i])
		}
	}
}
