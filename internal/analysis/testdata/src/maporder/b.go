package fixture

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

func badPost(eng *sim.Engine, r sim.Runner, wakes map[int]sim.Time) {
	for _, t := range wakes { // want `posts simulator events \(sim\.Engine\.PostRun\)`
		eng.PostRun(t, r)
	}
}

func badEmit(h *obs.Hub, cores map[int]bool) {
	for c := range cores { // want `emits observability events`
		h.Emit(obs.NestExpand{Core: c})
	}
}
