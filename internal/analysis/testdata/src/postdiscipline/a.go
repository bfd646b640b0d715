// Fixture for the postdiscipline analyzer: engine-callback and
// goroutine discipline in sim packages.
package fixture

import (
	"sync"

	"repro/internal/sim"
)

func use(int) {}

func badGo() {
	go func() {}() // want `goroutine started in a deterministic sim package`
}

func suppressedGo() {
	//lint:goroutine fixture: documented host-side helper
	go func() {}()
}

// RunAt bodies run on the sim goroutine and must never block.
type recvRunner struct{ ch chan int }

func (r *recvRunner) RunAt(sim.Time) { <-r.ch } // want `receives from a channel`

// Outside RunAt the same receive is host-side code: clean.
func (r *recvRunner) drain() { <-r.ch }

type sendRunner struct{ ch chan int }

func (r *sendRunner) RunAt(sim.Time) { r.ch <- 1 } // want `sends on a channel`

type selectRunner struct{ ch chan int }

func (r *selectRunner) RunAt(sim.Time) {
	select { // want `uses select`
	case <-r.ch: // want `receives from a channel`
	default:
	}
}

type lockRunner struct{ mu *sync.Mutex }

func (r *lockRunner) RunAt(sim.Time) { r.mu.Lock() } // want `sync\.Mutex\.Lock`

// wake is a pooled Runner the PostRun/Arm family schedules.
type wake struct {
	id int
}

func (w *wake) RunAt(now sim.Time) { use(w.id) }

func badRunnerPostRun(eng *sim.Engine, wakes map[int]sim.Time) {
	for id, t := range wakes {
		eng.PostRun(t, &wake{id: id}) // want `Runner passed to Engine\.PostRun is built from "id"`
	}
}

func badRunnerPostRunAfter(eng *sim.Engine, delays map[int]sim.Duration) {
	for id, d := range delays {
		eng.PostRunAfter(d, &wake{id: id}) // want `Runner passed to Engine\.PostRunAfter is built from "id"`
	}
}

func badRunnerArm(eng *sim.Engine, ev *sim.Event, wakes map[int]sim.Time) {
	for id, t := range wakes {
		eng.Arm(ev, t, &wake{id: id}) // want `Runner passed to Engine\.Arm is built from "id"`
	}
}

func badRunnerArmAfter(eng *sim.Engine, ev *sim.Event, delays map[int]sim.Duration) {
	for id, d := range delays {
		eng.ArmAfter(ev, d, &wake{id: id}) // want `Runner passed to Engine\.ArmAfter is built from "id"`
	}
}

// A Runner whose value is independent of the loop variables is clean:
// the deadline may come from the map, only the payload is checked.
func goodRunnerFixedPayload(eng *sim.Engine, w *wake, wakes map[int]sim.Time) {
	for _, t := range wakes {
		eng.PostRun(t, w)
	}
}

// Slice iteration is deterministic; building the Runner from its index
// is fine.
func goodRunnerSliceCapture(eng *sim.Engine, wakes []sim.Time) {
	for i, t := range wakes {
		eng.PostRun(t, &wake{id: i})
	}
}

// Runners built from non-loop state: clean.
func goodPlainPayload(eng *sim.Engine, d sim.Duration, n int) {
	eng.PostRunAfter(d, &wake{id: n})
}
