package workload

import (
	"encoding/json"
	"testing"

	"repro/internal/cfs"
	nest "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/governor"
	"repro/internal/machine"
)

func TestParseFanoutSpecCanonical(t *testing.T) {
	cases := map[string]string{
		"fanout:width=16":                        "fanout:width=16,stages=1,agg=all",
		"fanout:width=16,stages=2,agg=all":       "fanout:width=16,stages=2,agg=all",
		"fanout:width=16,stages=2,agg=quorum:12": "fanout:width=16,stages=2,agg=quorum:12",
		"fanout:agg=quorum:1,width=1":            "fanout:width=1,stages=1,agg=quorum:1",
		" fanout:width=8,stages=16 ":             "fanout:width=8,stages=16,agg=all",
		"fanout:width=1024,stages=1,agg=all":     "fanout:width=1024,stages=1,agg=all",
		"fanout:width=3,agg=quorum:3":            "fanout:width=3,stages=1,agg=quorum:3",
	}
	for in, want := range cases {
		sp, err := ParseFanoutSpec(in)
		if err != nil {
			t.Errorf("ParseFanoutSpec(%q): %v", in, err)
			continue
		}
		if got := sp.String(); got != want {
			t.Errorf("ParseFanoutSpec(%q).String() = %q, want %q", in, got, want)
		}
	}
}

func TestParseFanoutSpecErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"fanout",
		"fanout:",
		"fanout:stages=2",
		"fanout:width=0",
		"fanout:width=-4",
		"fanout:width=1025",
		"fanout:width=4,stages=17",
		"fanout:width=4,agg=quorum:5",
		"fanout:width=4,agg=quorum:0",
		"fanout:width=4,agg=most",
		"fanout:width=4,width=4",
		"fanout:width=4,depth=2",
		"spread:width=4",
	} {
		if _, err := ParseFanoutSpec(in); err == nil {
			t.Errorf("ParseFanoutSpec(%q): expected error", in)
		}
	}
}

func TestParseHedgeSpecCanonical(t *testing.T) {
	cases := map[string]string{
		"hedge:none":               "hedge:none",
		"hedge:after=2ms":          "hedge:after=2ms,max=1",
		"hedge:after=2ms,max=3":    "hedge:after=2ms,max=3",
		"hedge:after=p95":          "hedge:after=p95,max=1",
		"hedge:after=p50,max=8":    "hedge:after=p50,max=8",
		"hedge:max=2,after=1500us": "hedge:after=1500us,max=2",
	}
	for in, want := range cases {
		sp, err := ParseHedgeSpec(in)
		if err != nil {
			t.Errorf("ParseHedgeSpec(%q): %v", in, err)
			continue
		}
		if got := sp.String(); got != want {
			t.Errorf("ParseHedgeSpec(%q).String() = %q, want %q", in, got, want)
		}
	}
}

func TestParseHedgeSpecErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"hedge",
		"hedge:",
		"hedge:max=2",
		"hedge:after=0ms",
		"hedge:after=p0",
		"hedge:after=p100",
		"hedge:after=2ms,max=0",
		"hedge:after=2ms,max=9",
		"hedge:after=2ms,after=3ms",
		"hedge:after=2parsecs",
		"nope:after=2ms",
	} {
		if _, err := ParseHedgeSpec(in); err == nil {
			t.Errorf("ParseHedgeSpec(%q): expected error", in)
		}
	}
}

// TestFanoutConservation holds the lifecycle to its invariant one level
// down: every subtask attempt — primaries and hedges, across quorum
// cancellation and deadline dooming — terminal in exactly one of
// done/cancelled/timed-out/shed, with nothing outstanding at the end,
// and the parent-level attempt accounting conserved above it.
func TestFanoutConservation(t *testing.T) {
	pools := map[string]pool{
		"all-light":  referenceFanout(FanoutSpec{Width: 8, Stages: 2}, 0.7, gridHedge("none")),
		"all-hedged": referenceFanout(FanoutSpec{Width: 16, Stages: 2}, 0.7, gridHedge("p95")),
		"overload":   referenceFanout(FanoutSpec{Width: 16, Stages: 2}, 1.4, gridHedge("p95")),
		"quorum-hedge": referenceFanout(FanoutSpec{Width: 16, Stages: 2, Quorum: 12}, 1.0,
			HedgeSpec{Kind: HedgeFixed, After: msec, Max: 2}),
	}
	for name, p := range pools {
		m := cpu.New(cpu.Config{
			Spec: machine.IntelXeon6130(2), Gov: governor.Schedutil{},
			Policy: cfs.Default(), Seed: 11,
		})
		p.admission, p.requests = "none", 1200
		ol := p.install(m, 1)
		res := m.Run(0)
		if res.Custom["truncated"] != 0 {
			t.Fatalf("%s: run truncated", name)
		}
		if msg := ol.fanProbe(); msg != "" {
			t.Errorf("%s: subtask conservation broken: %s", name, msg)
		}
		if ol.fanOutstanding != 0 {
			t.Errorf("%s: %d subtask attempts leaked", name, ol.fanOutstanding)
		}
		if ol.fanIssued == 0 || ol.fanOut[fsubDone] == 0 {
			t.Errorf("%s: no fan-out activity (issued %d, done %d)", name, ol.fanIssued, ol.fanOut[fsubDone])
		}
		if settled, delivered := ol.out.offered(), int64(ol.delivered)+ol.retries; settled != delivered {
			t.Errorf("%s: parent conservation broken: %d attempts settled, %d delivered (%d base + %d retries)",
				name, settled, delivered, ol.delivered, ol.retries)
		}
		if ol.p.hedge.Kind != HedgeNone && ol.fanHedges > 0 && ol.fanHedgeWins > ol.fanHedges {
			t.Errorf("%s: more hedge wins (%d) than hedges (%d)", name, ol.fanHedgeWins, ol.fanHedges)
		}
		t.Logf("%s: issued %d = done %d + cancelled %d + timeout %d + shed %d; hedges %d wins %d; parents %d/%d/%d",
			name, ol.fanIssued, ol.fanOut[fsubDone], ol.fanOut[fsubCancel], ol.fanOut[fsubTimeout], ol.fanOut[fsubShed],
			ol.fanHedges, ol.fanHedgeWins, ol.out[outCompleted], ol.out.timedOut(), ol.out.shed())
	}
}

// TestFanoutQuorumCancelsStragglers: with quorum:K aggregation the
// stage advances after K completions, so the W-K undone slots' attempts
// must drain as cancelled — saved work, visible in the accounting.
func TestFanoutQuorumCancelsStragglers(t *testing.T) {
	p := referenceFanout(FanoutSpec{Width: 16, Stages: 2, Quorum: 10}, 0.7, gridHedge("none"))
	p.admission, p.requests = "none", 600
	m := cpu.New(cpu.Config{
		Spec: machine.IntelXeon6130(2), Gov: governor.Schedutil{},
		Policy: cfs.Default(), Seed: 3,
	})
	ol := p.install(m, 1)
	if res := m.Run(0); res.Custom["truncated"] != 0 {
		t.Fatal("run truncated")
	}
	if ol.fanOut[fsubCancel] == 0 {
		t.Errorf("quorum run cancelled no stragglers (issued %d, done %d)", ol.fanIssued, ol.fanOut[fsubDone])
	}
	if msg := ol.fanProbe(); msg != "" {
		t.Errorf("subtask conservation broken: %s", msg)
	}
}

// TestFanoutDeadlinePropagates: with no admission control in the way,
// sustained overload must blow the per-stage deadline budgets — subtask
// attempts expire, their parents are doomed through the fanout timeout
// path, and the parent accounting stays conserved.
func TestFanoutDeadlinePropagates(t *testing.T) {
	p := referenceFanout(FanoutSpec{Width: 16, Stages: 2}, 1.4, gridHedge("none"))
	p.admission, p.requests = "none", 1500
	m := cpu.New(cpu.Config{
		Spec: machine.IntelXeon6130(2), Gov: governor.Schedutil{},
		Policy: cfs.Default(), Seed: 5,
	})
	ol := p.install(m, 1)
	if res := m.Run(0); res.Custom["truncated"] != 0 {
		t.Fatal("run truncated")
	}
	if ol.fanOut[fsubTimeout] == 0 {
		t.Error("overloaded fan-out produced no subtask timeouts")
	}
	if ol.out[outTimeoutFanout] == 0 {
		t.Error("overloaded fan-out doomed no parents")
	}
	if settled, delivered := ol.out.offered(), int64(ol.delivered)+ol.retries; settled != delivered {
		t.Errorf("%d attempts settled, %d delivered (%d base + %d retries)",
			settled, delivered, ol.delivered, ol.retries)
	}
}

// TestHedgingShrinksTail is the tail-at-scale headline: at moderate
// load, hedging straggler subtasks at their observed p95 must improve
// the request p99 versus no hedging — and both runs must stay
// byte-identical across repeats at the same seed.
func TestHedgingShrinksTail(t *testing.T) {
	type tailStamp struct {
		p99, hedges, wins float64
	}
	spec := machine.IntelXeon6130(2)
	stamp := func(name string) (tailStamp, []byte) {
		res := runOn(t, name, spec, 0.05)
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return tailStamp{res.Custom["req_p99_us"], res.Custom["fan_hedges"], res.Custom["fan_hedge_wins"]}, b
	}
	plainName := FanoutMixName(16, 0.7, "none")
	hedgeName := FanoutMixName(16, 0.7, "p95")
	plain, plainBytes := stamp(plainName)
	hedged, hedgedBytes := stamp(hedgeName)
	if hedged.hedges == 0 || hedged.wins == 0 {
		t.Fatalf("hedged run issued %g hedges, won %g — nothing exercised", hedged.hedges, hedged.wins)
	}
	if plain.hedges != 0 {
		t.Errorf("hedge:none run issued %g hedges", plain.hedges)
	}
	if hedged.p99 >= plain.p99 {
		t.Errorf("hedging did not shrink the tail: p99 %gus (p95 hedge) vs %gus (none)", hedged.p99, plain.p99)
	}
	t.Logf("req p99: %gus hedged vs %gus plain; hedges %g, wins %g",
		hedged.p99, plain.p99, hedged.hedges, hedged.wins)
	// Same seed, same workload: byte-identical replay.
	if _, b := stamp(plainName); string(b) != string(plainBytes) {
		t.Error("hedge:none replay diverged")
	}
	if _, b := stamp(hedgeName); string(b) != string(hedgedBytes) {
		t.Error("hedged replay diverged")
	}
}

// TestFanoutSchedulersShareArrivals: the base offered load (offered
// minus retries) must be identical across schedulers at the same seed —
// hedging is server-side and draws no arrival RNG, so Nest and CFS
// face the same clients.
func TestFanoutSchedulersShareArrivals(t *testing.T) {
	base := func(policy cpu.Config) float64 {
		w, err := ByName(FanoutMixName(16, 0.7, "p95"))
		if err != nil {
			t.Fatal(err)
		}
		policy.Spec = machine.IntelXeon6130(2)
		policy.Gov = governor.Schedutil{}
		policy.Seed = 11
		m := cpu.New(policy)
		w.Install(m, 0.05)
		res := m.Run(0)
		if res.Custom["truncated"] != 0 {
			t.Fatal("run truncated")
		}
		return res.Custom["ovl_offered"] - res.Custom["ovl_retries"]
	}
	cfsBase := base(cpu.Config{Policy: cfs.Default()})
	nestBase := base(cpu.Config{Policy: nest.Default()})
	if cfsBase == 0 || cfsBase != nestBase {
		t.Errorf("base arrivals diverged across schedulers: cfs %g, nest %g", cfsBase, nestBase)
	}
}

// TestFanoutNoDeadlineNoTimeouts: with timeout=0 there are no stage
// budgets, so nothing may time out and every parent must complete.
func TestFanoutNoDeadlineNoTimeouts(t *testing.T) {
	p := referenceFanout(FanoutSpec{Width: 8, Stages: 2}, 0.7, gridHedge("p95"))
	p.timeout, p.retries = 0, 0
	p.admission, p.requests = "none", 400
	m := cpu.New(cpu.Config{
		Spec: machine.IntelXeon6130(2), Gov: governor.Schedutil{},
		Policy: cfs.Default(), Seed: 9,
	})
	ol := p.install(m, 1)
	if res := m.Run(0); res.Custom["truncated"] != 0 {
		t.Fatal("run truncated")
	}
	if ol.fanOut[fsubTimeout] != 0 {
		t.Errorf("deadline-free run timed out %d subtask attempts", ol.fanOut[fsubTimeout])
	}
	if ol.out[outCompleted] != ol.out.offered() || ol.out[outCompleted] != int64(ol.delivered) {
		t.Errorf("deadline-free run: %d of %d parents completed (%d delivered)",
			ol.out[outCompleted], ol.out.offered(), ol.delivered)
	}
}
