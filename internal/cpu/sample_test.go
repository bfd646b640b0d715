package cpu

import (
	"encoding/json"
	"testing"

	nest "repro/internal/core"
	"repro/internal/fault"
	"repro/internal/governor"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// sampleRun runs the bench workload on a two-socket 6130 under the given
// fault plan ("" for none), sampling gauges every `every`.
func sampleRun(t *testing.T, hub *obs.Hub, every sim.Duration, faults string) *metrics.Result {
	t.Helper()
	spec := machine.IntelXeon6130(2)
	plan, err := fault.Parse(faults)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: nest.Default(), Seed: 42, Obs: hub, SampleEvery: every})
	plan.Apply(m)
	benchWorkload(m, spec)
	return m.Run(0)
}

// TestSamplerByteIdentity is the acceptance check that enabling the
// periodic gauge sampler does not change simulation results: a sampled
// run's result (minus the obs aggregates, which exist only when a hub
// does) must encode to the same bytes as an unsampled, unobserved run.
func TestSamplerByteIdentity(t *testing.T) {
	base := sampleRun(t, nil, 0, "")

	var buf obs.SeriesBuffer
	hub := obs.New(&buf)
	sampled := sampleRun(t, hub, 4*sim.Millisecond, "")
	if buf.Len() == 0 {
		t.Fatal("sampler emitted no gauges")
	}
	if sampled.Stats == nil || sampled.Stats.Counter("gauge.core") == 0 {
		t.Fatal("gauge counters missing from RunStats")
	}
	sampled.Stats = nil

	b1, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("sampling changed the simulation:\nbase:    %s\nsampled: %s", b1, b2)
	}
}

// TestSamplerDisabledAddsNoAllocs extends the zero-overhead proof to the
// sampler: with SampleEvery configured but the hub disabled (or absent),
// a run allocates exactly as much as one with no hub at all.
func TestSamplerDisabledAddsNoAllocs(t *testing.T) {
	spec := machine.IntelXeon6130(2)
	run := func(hub *obs.Hub) float64 {
		return testing.AllocsPerRun(3, func() {
			m := New(Config{Spec: spec, Gov: governor.Schedutil{}, Policy: nest.Default(), Seed: 1, Obs: hub, SampleEvery: 4 * sim.Millisecond})
			benchWorkload(m, spec)
			m.Run(0)
		})
	}
	noHub := run(nil)
	disabled := run(obs.Disabled())
	if noHub != disabled {
		t.Fatalf("disabled sampler changes allocations: none=%v disabled=%v", noHub, disabled)
	}
}

// TestSamplerDisabledAddsNoEvents proves the disabled path records
// nothing even with sampling configured.
func TestSamplerDisabledAddsNoEvents(t *testing.T) {
	hub := obs.Disabled()
	sampleRun(t, hub, 4*sim.Millisecond, "")
	if hub.Events() != 0 {
		t.Fatalf("disabled hub recorded %d events", hub.Events())
	}
}

// TestSamplerGaugeStream validates the shape of the emitted gauge
// batches: per-batch core gauges in ascending core order covering every
// core, one socket gauge per socket with believable busy shares, nest
// gauges present under the nest policy, and monotone non-decreasing
// timestamps across batches.
func TestSamplerGaugeStream(t *testing.T) {
	var buf obs.SeriesBuffer
	hub := obs.New(&buf)
	sampleRun(t, hub, 8*sim.Millisecond, "")

	spec := machine.IntelXeon6130(2)
	nCores := spec.Topo.NumCores()
	nSockets := spec.Topo.NumSockets()

	if len(buf.Cores)%nCores != 0 {
		t.Fatalf("%d core gauges is not a whole number of %d-core batches", len(buf.Cores), nCores)
	}
	batches := len(buf.Cores) / nCores
	if batches < 2 {
		t.Fatalf("only %d sample batches", batches)
	}
	if len(buf.Sockets) != batches*nSockets {
		t.Fatalf("%d socket gauges, want %d", len(buf.Sockets), batches*nSockets)
	}
	if len(buf.Nests) != batches {
		t.Fatalf("%d nest gauges, want %d (nest policy active)", len(buf.Nests), batches)
	}

	var lastT sim.Time
	for i, g := range buf.Cores {
		if g.Core != i%nCores {
			t.Fatalf("core gauge %d: core=%d, want ascending order", i, g.Core)
		}
		if g.T < lastT {
			t.Fatalf("core gauge %d: time went backwards (%v after %v)", i, g.T, lastT)
		}
		lastT = g.T
		switch g.State {
		case "busy", "spin", "idle", "offline":
		default:
			t.Fatalf("core gauge %d: unknown state %q", i, g.State)
		}
		if g.Queue < 0 || g.FreqMHz < 0 {
			t.Fatalf("core gauge %d: negative queue/freq: %+v", i, g)
		}
	}
	sawBusy := false
	for _, g := range buf.Sockets {
		if g.Online < 0 || g.Busy < 0 || g.Busy > g.Online {
			t.Fatalf("socket gauge out of range: %+v", g)
		}
		if g.Busy > 0 {
			sawBusy = true
		}
	}
	if !sawBusy {
		t.Fatal("no socket ever showed a busy core during a loaded run")
	}
	for _, g := range buf.Nests {
		if g.Primary < 0 || g.Reserve < 0 {
			t.Fatalf("nest gauge out of range: %+v", g)
		}
	}
}

// TestSamplerIntervalRounding checks sub-tick intervals clamp to one
// tick and longer intervals thin the batches proportionally.
func TestSamplerIntervalRounding(t *testing.T) {
	count := func(every sim.Duration) int {
		var buf obs.SeriesBuffer
		sampleRun(t, obs.New(&buf), every, "")
		return len(buf.Nests) // one per batch
	}
	everyTick := count(sim.Millisecond) // < one tick: clamps to every tick
	sparse := count(16 * sim.Millisecond)
	if everyTick == 0 || sparse == 0 {
		t.Fatal("sampler produced no batches")
	}
	if everyTick < 3*sparse {
		t.Fatalf("sub-tick interval (%d batches) should sample ~4x denser than 16ms (%d)", everyTick, sparse)
	}
}

// TestSamplerGaugeStreamHotplug pins the sampler's offline behaviour:
// batches stay full while a core is unplugged, the core reads "offline"
// inside the window, and its socket's Online count drops by one.
func TestSamplerGaugeStreamHotplug(t *testing.T) {
	const core = 5
	from, until := 20*sim.Millisecond, 60*sim.Millisecond
	var buf obs.SeriesBuffer
	sampleRun(t, obs.New(&buf), sim.Tick, "off:c5@20ms+40ms")

	spec := machine.IntelXeon6130(2)
	nCores := spec.Topo.NumCores()
	if len(buf.Cores)%nCores != 0 {
		t.Fatalf("%d core gauges is not a whole number of %d-core batches", len(buf.Cores), nCores)
	}
	// The window's edges are skipped: a tick at the same instant as the
	// hotplug action may sample either side of it.
	inside := func(at sim.Time) bool { return at > from && at < until }
	seen := 0
	for _, g := range buf.Cores {
		if g.Core != core || !inside(g.T) {
			continue
		}
		seen++
		if g.State != "offline" {
			t.Fatalf("core %d at %v: state %q inside its offline window", core, g.T, g.State)
		}
	}
	if seen == 0 {
		t.Fatal("no gauge sampled inside the offline window")
	}
	sock := spec.Topo.Socket(core)
	full := len(spec.Topo.SocketCores(sock))
	for _, g := range buf.Sockets {
		if g.T == from || g.T == until {
			continue
		}
		want := full
		if g.Socket == sock && inside(g.T) {
			want = full - 1
		}
		if g.Online != want {
			t.Fatalf("socket %d at %v: online=%d, want %d", g.Socket, g.T, g.Online, want)
		}
	}
}
