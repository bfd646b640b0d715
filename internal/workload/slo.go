package workload

import (
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// sloAccum collects per-request service latencies for one server run: a
// log-bucketed histogram plus SLO-attainment counters. Requests are
// timed from the moment the handler issues the service computation to
// the moment it completes, so queueing behind a preempted core, a cold
// placement or a slow frequency ramp all count against the target while
// the workload's own modelled I/O pauses do not. Recording only reads
// the task clock — it never changes simulation behavior.
type sloAccum struct {
	class string
	slo   sim.Duration
	hist  metrics.LatHist
	ok    int64
}

func (a *sloAccum) record(d sim.Duration) {
	a.hist.Add(d)
	if a.slo <= 0 || d <= a.slo {
		a.ok++
	}
}

// publishRequests publishes a finished run's request accounting: the
// percentiles of all classes' merged latencies as result customs, SLO
// attainment when any class has a target, and, when observability is
// on, each class's "slo.<class>.ok/miss" counters. A run that recorded
// no request publishes nothing.
func publishRequests(m *cpu.Machine, accs []sloAccum) {
	var merged metrics.LatHist
	var ok int64
	withSLO := false
	for i := range accs {
		a := &accs[i]
		if a.hist.Count() == 0 {
			continue
		}
		merged.Merge(&a.hist)
		ok += a.ok
		withSLO = withSLO || a.slo > 0
		if h := m.Obs(); h != nil {
			h.Count("slo."+a.class+".ok", a.ok)
			h.Count("slo."+a.class+".miss", a.hist.Count()-a.ok)
		}
	}
	total := merged.Count()
	if total == 0 {
		return
	}
	res := m.Result()
	tail := merged.Tail()
	us := func(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) }
	res.SetCustom("req_total", float64(total))
	res.SetCustom("req_p50_us", us(tail.P50))
	res.SetCustom("req_p95_us", us(tail.P95))
	res.SetCustom("req_p99_us", us(tail.P99))
	res.SetCustom("req_p999_us", us(tail.P999))
	if withSLO {
		res.SetCustom("slo_ok", float64(ok))
		res.SetCustom("slo_pct", 100*float64(ok)/float64(total))
	}
}
