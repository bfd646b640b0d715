package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// FuzzEngineOrdering drives the event queue with a fuzz-derived schedule
// — including events scheduled from inside other events — and checks the
// engine's two ordering guarantees: virtual time never decreases, and
// events at the same instant fire in scheduling (FIFO) order.
func FuzzEngineOrdering(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{255, 128, 7, 9, 33, 0, 255, 1})
	f.Add([]byte{9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		eng := NewEngine()
		idx := 0
		next := func() (byte, bool) {
			if idx >= len(data) {
				return 0, false
			}
			b := data[idx]
			idx++
			return b, true
		}

		// Track our own (when, seq) watermark: seq is assigned at
		// scheduling time, mirroring the FIFO contract.
		var seq uint64
		lastWhen := Time(-1)
		var lastSeq uint64
		fired := 0
		var schedule func(at Time)
		schedule = func(at Time) {
			my := seq
			seq++
			eng.PostRun(at, runFunc(func(now Time) {
				fired++
				if now != eng.Now() {
					t.Fatalf("RunAt got %v, engine clock %v", now, eng.Now())
				}
				if now != at {
					t.Fatalf("event scheduled for %v fired at %v", at, now)
				}
				if now < lastWhen {
					t.Fatalf("time went backwards: %v after %v", now, lastWhen)
				}
				if now == lastWhen && my < lastSeq {
					t.Fatalf("FIFO violated at %v: seq %d fired after %d", now, my, lastSeq)
				}
				lastWhen, lastSeq = now, my
				// Nested scheduling: some events spawn a child at or
				// after the current instant.
				if b, ok := next(); ok {
					schedule(now + Time(b%16))
				}
			}))
		}
		// Seed from the first half of the input; the second half feeds
		// nested scheduling from inside firing events.
		for idx < (len(data)+1)/2 {
			b, _ := next()
			schedule(Time(b))
		}
		eng.Run(0)
		if eng.Pending() != 0 {
			t.Fatalf("%d events still pending after Run", eng.Pending())
		}
		if fired != int(seq) {
			t.Fatalf("scheduled %d events (incl. nested), fired %d", seq, fired)
		}
	})
}

// oracleVM interprets a byte program against one engine, logging every
// observable effect: event firings (id and virtual time), cancel
// results, and panics from past-time scheduling. Running the same
// program against NewEngine and NewEngineHeap must produce identical
// logs — the heap engine is algorithmically the pre-wheel engine, so any
// divergence is a wheel bug.
type oracleVM struct {
	e    *Engine
	data []byte
	idx  int
	log  []string
	evs  []*Event // handles from ArmAfter, for Cancel/re-Arm ops
	arm  [4]Event // persistent in-place handles for Arm ops
	id   int
}

func (vm *oracleVM) next() (byte, bool) {
	if vm.idx >= len(vm.data) {
		return 0, false
	}
	b := vm.data[vm.idx]
	vm.idx++
	return b, true
}

// delay decodes a magnitude-spread delay so programs exercise the near
// heap, every wheel level, and the far heap.
func (vm *oracleVM) delay() Duration {
	a, _ := vm.next()
	b, _ := vm.next()
	switch a % 5 {
	case 0:
		return Duration(b) // sub-bucket
	case 1:
		return Duration(b) << 8 // within a few buckets
	case 2:
		return Duration(b) << 16 // level 0/1
	case 3:
		return Duration(b) << 24 // level 1/2
	default:
		return Duration(b) << 32 // level 2 and far heap
	}
}

// vmRunner is the Runner every VM op schedules; id names the firing in
// the log.
type vmRunner struct {
	vm *oracleVM
	id int
}

func (r *vmRunner) RunAt(now Time) { r.vm.fire(r.id, now) }

// runner returns a Runner with the next firing id.
func (vm *oracleVM) runner() *vmRunner {
	r := &vmRunner{vm: vm, id: vm.id}
	vm.id++
	return r
}

func (vm *oracleVM) fire(id int, now Time) {
	vm.log = append(vm.log, fmt.Sprintf("f%d@%d", id, now))
	vm.step() // nested scheduling from inside events
}

// step executes one program instruction.
func (vm *oracleVM) step() {
	op, ok := vm.next()
	if !ok {
		return
	}
	switch op % 8 {
	case 0, 1: // fire-and-forget, relative delay
		vm.e.PostRunAfter(vm.delay(), vm.runner())
	case 2: // fresh tracked handle
		ev := &Event{}
		vm.e.ArmAfter(ev, vm.delay(), vm.runner())
		vm.evs = append(vm.evs, ev)
	case 3: // cancel a tracked handle
		if len(vm.evs) > 0 {
			b, _ := vm.next()
			i := int(b) % len(vm.evs)
			vm.log = append(vm.log, fmt.Sprintf("c%d:%v", i, vm.e.Cancel(vm.evs[i])))
		}
	case 4: // re-arm a tracked handle (pending, fired or cancelled)
		if len(vm.evs) > 0 {
			b, _ := vm.next()
			i := int(b) % len(vm.evs)
			r := vm.runner()
			vm.e.Arm(vm.evs[i], vm.e.Now()+vm.delay(), r)
		}
	case 5: // arm a persistent in-place handle
		b, _ := vm.next()
		i := int(b) % len(vm.arm)
		r := vm.runner()
		vm.e.Arm(&vm.arm[i], vm.e.Now()+vm.delay(), r)
	case 6: // fire-and-forget, absolute time
		r := vm.runner()
		vm.e.PostRun(vm.e.Now()+vm.delay(), r)
	case 7: // past-time scheduling must panic, identically on both engines
		d := vm.delay() + 1
		func() {
			defer func() {
				vm.log = append(vm.log, fmt.Sprintf("p:%v", recover()))
			}()
			if vm.e.Now() < d {
				// Would not be in the past; log a no-op marker instead so
				// both engines stay in lockstep.
				vm.log = append(vm.log, "p:skip")
				return
			}
			vm.e.PostRun(vm.e.Now()-d, vm.runner())
		}()
	}
}

// runOracleProgram interprets data against e and returns the effect log.
func runOracleProgram(e *Engine, data []byte) []string {
	vm := &oracleVM{e: e, data: data}
	// The first half of the program seeds top-level events; the rest is
	// consumed by nested steps as events fire.
	for vm.idx < (len(data)+1)/2 {
		vm.step()
	}
	e.Run(0)
	vm.log = append(vm.log, fmt.Sprintf("end@%d:pending=%d", e.Now(), e.Pending()))
	return vm.log
}

func compareOracleLogs(t *testing.T, data []byte) {
	t.Helper()
	w := runOracleProgram(NewEngine(), data)
	h := runOracleProgram(NewEngineHeap(), data)
	if len(w) != len(h) {
		t.Fatalf("log length diverges: wheel %d, heap %d\nwheel: %v\nheap: %v", len(w), len(h), w, h)
	}
	for i := range w {
		if w[i] != h[i] {
			t.Fatalf("divergence at entry %d: wheel %q, heap %q", i, w[i], h[i])
		}
	}
}

// FuzzEngineDifferential is the heap-vs-wheel oracle: a fuzz-derived
// program of PostRun/PostRunAfter/ArmAfter/Cancel/Arm ops — including
// past-time scheduling attempts — runs against both engines, which must
// produce identical fire orders, cancel results, and panics.
func FuzzEngineDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 4, 200, 3, 0, 4, 1, 100, 5, 2, 3, 50, 6, 4, 255})
	f.Add([]byte{7, 4, 9, 0, 4, 255, 7, 0, 1, 3, 0, 4, 2, 128})
	f.Add([]byte{1, 3, 255, 1, 3, 254, 1, 3, 253, 2, 4, 100, 3, 0, 5, 1, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		compareOracleLogs(t, data)
	})
}

// TestEngineDifferentialRandom drives the same oracle with generated
// random programs so the differential check runs in every plain `go
// test`, not only under fuzzing.
func TestEngineDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 60+rng.Intn(400))
		rng.Read(data)
		compareOracleLogs(t, data)
	}
}
