package workload

import (
	"testing"

	"repro/internal/cfs"
	"repro/internal/cpu"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sim"
)

// obsRun runs a named workload with an enabled obs hub and returns the
// result plus the counter snapshot.
func obsRun(t *testing.T, name string, scale float64) (*metrics.Result, map[string]int64) {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	hub := obs.New()
	m := cpu.New(cpu.Config{
		Spec: machine.IntelXeon6130(2), Gov: governor.Schedutil{},
		Policy: cfs.Default(), Seed: 7, Obs: hub,
	})
	w.Install(m, scale)
	res := m.Run(0)
	return res, hub.Snapshot()
}

// TestSLOCountersConserve checks per-class accounting: slo.<class>.ok
// plus slo.<class>.miss must equal the requests the run recorded, for a
// closed-loop profile, an open-loop profile and the multi-class
// overload pool.
func TestSLOCountersConserve(t *testing.T) {
	cases := []struct {
		name    string
		classes []string
	}{
		{"server/redis", []string{"kv"}},             // closed loop
		{"server/apache-siege-250", []string{"web"}}, // open loop
		{OverloadMixName(1, "none"), []string{"web", "kv", "script"}},
	}
	for _, c := range cases {
		res, snap := obsRun(t, c.name, 0.05)
		var okMiss int64
		for _, class := range c.classes {
			ok, miss := snap["slo."+class+".ok"], snap["slo."+class+".miss"]
			if ok+miss == 0 {
				t.Errorf("%s: class %s recorded no requests", c.name, class)
			}
			okMiss += ok + miss
		}
		if total := int64(res.Custom["req_total"]); okMiss != total {
			t.Errorf("%s: slo ok+miss = %d, req_total = %d", c.name, okMiss, total)
		}
		if okSum := int64(res.Custom["slo_ok"]); okSum > okMiss {
			t.Errorf("%s: slo_ok %d exceeds recorded requests %d", c.name, okSum, okMiss)
		}
	}
}

// TestSLOAttainmentFixture hand-computes attainment: an accumulator
// with a 5ms target fed nine known latencies must report exactly the
// fixture's ok count and percentage.
func TestSLOAttainmentFixture(t *testing.T) {
	m := cpu.New(cpu.Config{Spec: machine.IntelXeon6130(2), Gov: governor.Schedutil{}, Policy: cfs.Default(), Seed: 1})
	accs := []sloAccum{{class: "web", slo: 5 * msec}}
	for ms := 1; ms <= 9; ms++ {
		accs[0].record(sim.Duration(ms) * msec) // 1..5 meet the target, 6..9 miss
	}
	m.OnExit(func(t *proc.Task) { publishRequests(m, accs) })
	m.Spawn("server-main", proc.Script(proc.Compute{Cycles: 1000}))
	res := m.Run(0)
	if got := res.Custom["req_total"]; got != 9 {
		t.Errorf("req_total = %g, want 9", got)
	}
	if got := res.Custom["slo_ok"]; got != 5 {
		t.Errorf("slo_ok = %g, want 5", got)
	}
	if got, want := res.Custom["slo_pct"], 100*5.0/9.0; got != want {
		t.Errorf("slo_pct = %g, want %g", got, want)
	}
}

// TestSLOOpenAndClosedLoopAgree runs the same serving shape in both
// loop modes well below saturation: attainment must be high (and the
// recorded request count exact) either way, since an unloaded pool
// meets a 4x-mean target regardless of how requests are fed.
func TestSLOOpenAndClosedLoopAgree(t *testing.T) {
	prof := serverProfile{
		Handlers: 16, Requests: 20000,
		Service: 800 * sim.Microsecond, CV: 0.3,
		Class: "web", SLO: 4 * msec,
	}
	run := func(open bool) *metrics.Result {
		p := prof
		p.OpenLoop = open
		p.ArrivalFactor = 0.5
		m := cpu.New(cpu.Config{Spec: machine.IntelXeon6130(2), Gov: governor.Schedutil{}, Policy: cfs.Default(), Seed: 7})
		p.install(m, 0.05)
		res := m.Run(0)
		if res.Custom["truncated"] != 0 {
			t.Fatal("run truncated")
		}
		return res
	}
	closed, open := run(false), run(true)
	want := float64(scaleCount(prof.Requests, 0.05, 50))
	if closed.Custom["req_total"] != want {
		t.Errorf("closed loop recorded %g requests, want %g", closed.Custom["req_total"], want)
	}
	if open.Custom["req_total"] != want {
		t.Errorf("open loop recorded %g requests, want %g", open.Custom["req_total"], want)
	}
	for _, r := range []*metrics.Result{closed, open} {
		if pct := r.Custom["slo_pct"]; pct < 95 {
			t.Errorf("unloaded pool attainment %g%% below 95%%", pct)
		}
	}
	if c, o := closed.Custom["slo_pct"], open.Custom["slo_pct"]; c-o > 10 || o-c > 10 {
		t.Errorf("loop modes disagree on attainment: closed %g%%, open %g%%", c, o)
	}
}

// TestClosedLoopRemainderDistribution is the request-count fix: when the
// pool size does not divide the scaled request count, the remainder
// spreads over the first handlers and the total served stays exact.
func TestClosedLoopRemainderDistribution(t *testing.T) {
	for _, c := range []struct {
		handlers, requests int
		scale              float64
	}{
		{7, 20000, 0.05},  // 1000 = 7*142 + 6
		{96, 60000, 0.05}, // 3000 = 96*31 + 24
		{16, 16000, 0.05}, // 800 divides evenly
		{64, 1000, 0.05},  // 50 requests, fewer than handlers
	} {
		prof := serverProfile{
			Handlers: c.handlers, Requests: c.requests,
			Service: 500 * sim.Microsecond, CV: 0.2,
			Class: "web", SLO: 10 * msec,
		}
		m := cpu.New(cpu.Config{Spec: machine.IntelXeon6130(2), Gov: governor.Schedutil{}, Policy: cfs.Default(), Seed: 3})
		prof.install(m, c.scale)
		res := m.Run(0)
		want := float64(scaleCount(c.requests, c.scale, 50))
		if got := res.Custom["req_total"]; got != want {
			t.Errorf("handlers=%d requests=%d: served %g, want %g", c.handlers, c.requests, got, want)
		}
	}
}
