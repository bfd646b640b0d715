// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock in nanoseconds and a pending-event
// structure ordered by (when, seq): earlier times first, FIFO (scheduling
// order) within the same instant, which keeps runs deterministic. All
// simulation state in this repository is driven from a single goroutine;
// the engine is intentionally not safe for concurrent use. Independent
// runs each own an engine, so whole runs can execute on separate
// goroutines (the experiment grid pool does exactly that).
//
// Internally the pending set is a hierarchical timing wheel in front of a
// small 4-ary heap (see wheel.go and docs/PERFORMANCE.md): the heap holds
// only the events of the current wheel bucket, so push/pop cost is O(1)
// in the total number of pending events. NewEngineHeap builds the same
// engine with the wheel disabled — everything stays in the heap — which
// is algorithmically the pre-wheel engine and serves as the differential
// oracle in tests.
package sim

import (
	"fmt"
	"sync/atomic"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Tick is the scheduler tick period (250 Hz, as on the paper's servers).
const Tick = 4 * Millisecond

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts a virtual time to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String renders the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Runner is the engine's callback form: callers implement RunAt on
// preallocated (usually pooled) receivers and post them through
// PostRun/PostRunAfter/Arm/ArmAfter, so scheduling allocates nothing per
// event. The engine invokes RunAt exactly once per scheduled
// occurrence, with the virtual time the event fired at.
type Runner interface {
	RunAt(now Time)
}

// Event is a handle to a scheduled callback that can be cancelled or
// re-armed. The zero Event is valid and unscheduled: embed one in a
// long-lived struct and arm it in place with Engine.Arm, which
// reschedules without any allocation. Fire-and-forget callbacks use
// Engine.PostRun / Engine.PostRunAfter, which schedule without a handle
// at all.
type Event struct {
	n *node // pending entry, nil once fired or cancelled
}

// Scheduled reports whether the event is still pending.
func (e *Event) Scheduled() bool { return e != nil && e.n != nil }

// Engine is a discrete-event simulator instance.
type Engine struct {
	now   Time
	seq   uint64
	count int // pending events, across near heap, wheel and far heap

	// near is a 4-ary min-heap of the events below horizon — the ones
	// that can fire before the wheel must turn again. With the wheel
	// engaged it stays a handful of entries deep regardless of the total
	// pending count.
	near []*node

	// horizon is the exclusive upper bound on near-heap times, always a
	// multiple of the level-0 bucket width. Events at or past it live in
	// the wheel buckets or, beyond the wheel's reach, in the far heap.
	// NewEngineHeap sets it to maxTime so the wheel never engages.
	horizon Time

	// The hierarchical wheel: wheelLevels levels of wheelSlots buckets
	// (unordered singly-linked node chains), per-level occupancy bitmaps,
	// and a count of nodes currently chained in any bucket.
	levels     [wheelLevels][wheelSlots]*node
	occ        [wheelLevels][wheelWords]uint64
	wheelCount int

	// far is a 4-ary min-heap of events beyond the wheel's coverage;
	// advance drains it into the wheel as the horizon approaches.
	far []*node

	// freeN is the node free-list; nodes are slab-allocated and recycled
	// so steady-state scheduling performs no allocation.
	freeN *node //own:engine

	// steps counts processed events, for run-away detection in tests.
	steps uint64
	// onStep, when set, runs after every processed event — the hook the
	// invariant checker (internal/invariant) uses to validate machine
	// state after each scheduling event. Nil costs nothing.
	onStep func()
	// stopRequested is the one piece of engine state another goroutine
	// may touch: watchdogs set it to ask the run loop to stop. Everything
	// else on the engine remains single-goroutine. Run loops poll it
	// every stopCheckInterval events rather than per event.
	stopRequested atomic.Bool
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{horizon: bucketWidth}
}

// NewEngineHeap returns an engine whose wheel never engages: every
// pending event lives in the 4-ary near heap, which makes it
// algorithmically the pre-wheel engine. It exists as the differential
// oracle — tests run it side by side with the wheel engine and require
// byte-identical event streams (see TestEngineDifferential and
// FuzzEngineDifferential).
func NewEngineHeap() *Engine {
	return &Engine{horizon: maxTime}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns the number of events processed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// OnStep registers fn to run after every processed event (nil clears
// it). One hook at a time: registering replaces the previous one.
func (e *Engine) OnStep(fn func()) { e.onStep = fn }

// Pending returns the number of pending events.
func (e *Engine) Pending() int { return e.count }

// schedule validates t and enqueues r (ev may be nil for handle-free
// callers). Scheduling in the past panics: it always indicates a
// modelling bug, and silently reordering time would corrupt every metric
// downstream.
func (e *Engine) schedule(t Time, r Runner, ev *Event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	n := e.newNode()
	n.when = t
	n.seq = e.seq
	n.r = r
	n.ev = ev
	e.seq++
	e.count++
	if ev != nil {
		ev.n = n //lint:poollife the Event handle must alias its node so Cancel/Arm can find it; every free site clears ev.n first
	}
	if t < e.horizon {
		e.heapPush(&e.near, n, locNear)
	} else {
		e.wheelAdd(n)
	}
}

// PostRun schedules r.RunAt to run at time t without a handle. Together
// with a preallocated receiver this path performs no allocation at all.
func (e *Engine) PostRun(t Time, r Runner) {
	e.schedule(t, r, nil)
}

// PostRunAfter schedules r.RunAt to run d nanoseconds from now, without
// a handle.
func (e *Engine) PostRunAfter(d Duration, r Runner) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.schedule(e.now+d, r, nil)
}

// Arm schedules r.RunAt at time t on a caller-owned handle, first
// cancelling ev if it is still pending. Re-arming an already-fired or
// zero Event works; with a long-lived ev and r the whole cycle is
// allocation-free.
func (e *Engine) Arm(ev *Event, t Time, r Runner) {
	e.Cancel(ev)
	e.schedule(t, r, ev)
}

// ArmAfter arms ev to run r.RunAt d nanoseconds from now.
func (e *Engine) ArmAfter(ev *Event, d Duration, r Runner) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.Arm(ev, e.now+d, r)
}

// Cancel removes a pending event. Cancelling an event that already fired
// (or was already cancelled) is a no-op and returns false.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.n == nil {
		return false
	}
	n := ev.n
	ev.n = nil
	e.count--
	switch n.loc {
	case locNear:
		e.heapRemoveAt(&e.near, int(n.pos))
		e.freeNode(n)
	case locFar:
		e.heapRemoveAt(&e.far, int(n.pos))
		e.freeNode(n)
	default: // locBucket: mark dead in place; reclaimed when the bucket drains
		n.loc = locDead
		n.r = nil
		n.ev = nil
	}
	return true
}

// ensureNear tops up the near heap from the wheel when it runs dry.
// It returns false when no events are pending at all.
func (e *Engine) ensureNear() bool {
	if len(e.near) == 0 {
		if e.count == 0 {
			return false
		}
		e.advance()
	}
	return true
}

// stepNear dispatches the earliest near-heap event. The caller must have
// ensured the near heap is non-empty.
func (e *Engine) stepNear() {
	n := e.heapRemoveAt(&e.near, 0)
	if n.when < e.now {
		panic("sim: event queue went backwards")
	}
	e.now = n.when
	e.steps++
	e.count--
	if n.ev != nil {
		n.ev.n = nil
	}
	r := n.r
	e.freeNode(n)
	r.RunAt(e.now)
	if e.onStep != nil {
		e.onStep()
	}
}

// RequestStop asks the run loop to stop. It is the only engine method
// safe to call from another goroutine — watchdog timers use it to cancel
// a wedged or over-budget run. The flag is polled every
// stopCheckInterval events (not per event, to keep the atomic load off
// the hottest loop), so up to that many events may still fire; queued
// events stay queued; the clock stays wherever the last processed event
// left it.
func (e *Engine) RequestStop() { e.stopRequested.Store(true) }

// StopRequested reports whether RequestStop has been called.
func (e *Engine) StopRequested() bool { return e.stopRequested.Load() }

// stopCheckInterval is how many events a run loop processes between
// polls of the cross-goroutine stop flag. Watchdog stop latency is
// bounded by this many events (TestEngineRequestStopLatencyBounded).
const stopCheckInterval = 1024

// Run processes events until the queue is empty, the clock passes
// limit, or a stop is requested. A limit of zero means no limit. It
// returns the final virtual time.
func (e *Engine) Run(limit Time) Time {
	budget := 0
	for e.count > 0 {
		if budget == 0 {
			if e.stopRequested.Load() {
				break
			}
			budget = stopCheckInterval
		}
		budget--
		if !e.ensureNear() {
			break
		}
		if limit > 0 && e.near[0].when > limit {
			e.now = limit
			break
		}
		e.stepNear()
	}
	return e.now
}

// RunUntil processes events until cond returns true, events run out, or
// a stop is requested. cond is evaluated before every event; the stop
// flag every stopCheckInterval events.
func (e *Engine) RunUntil(cond func() bool) Time {
	budget := 0
	for e.count > 0 {
		if budget == 0 {
			if e.stopRequested.Load() {
				break
			}
			budget = stopCheckInterval
		}
		budget--
		if cond() {
			break
		}
		if !e.ensureNear() {
			break
		}
		e.stepNear()
	}
	return e.now
}
