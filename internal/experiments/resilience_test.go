package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/invariant"
	"repro/internal/obs"
)

const detFaults = "off:c2@5ms+10ms,throttle:s0@4ms+15ms=1.8GHz,jitter:@3ms+20ms=1ms,spike:@6ms=12x1ms"

// runStamp runs rs once and returns a byte stamp of everything the run
// measured: the result scalars and the full counter registry.
func runStamp(t *testing.T, rs RunSpec) []byte {
	t.Helper()
	rs.Obs = obs.New()
	rs.Check = invariant.New()
	res, err := Run(rs)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Check.Total() != 0 {
		t.Fatalf("invariant violations under faults: %v", rs.Check.Violations()[0])
	}
	stamp, err := json.Marshal(struct {
		Runtime  float64
		EnergyJ  float64
		Counters map[string]int64
	}{res.Runtime.Seconds(), res.EnergyJ, res.Stats.Counters})
	if err != nil {
		t.Fatal(err)
	}
	return stamp
}

func TestDeterminismUnderFaults(t *testing.T) {
	for _, sched := range []string{"cfs", "nest"} {
		rs := RunSpec{
			Machine: "5218", Scheduler: sched, Governor: "schedutil",
			Workload: "configure/gcc", Scale: 0.01, Seed: 7,
			Faults: detFaults,
		}
		a := runStamp(t, rs)
		b := runStamp(t, rs)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: identical seed and fault plan diverged:\n%s\n%s", sched, a, b)
		}
	}
}

func TestFaultsChangeTheRun(t *testing.T) {
	rs := RunSpec{
		Machine: "5218", Scheduler: "nest", Governor: "schedutil",
		Workload: "configure/gcc", Scale: 0.01, Seed: 7,
	}
	clean := runStamp(t, rs)
	rs.Faults = detFaults
	faulted := runStamp(t, rs)
	if bytes.Equal(clean, faulted) {
		t.Fatal("fault plan had no observable effect")
	}
}

func TestRunRejectsBadFaultPlans(t *testing.T) {
	rs := RunSpec{
		Machine: "5218", Scheduler: "cfs", Governor: "schedutil",
		Workload: "configure/gcc", Scale: 0.01,
	}
	rs.Faults = "off:c3@"
	if _, err := Run(rs); err == nil {
		t.Fatal("syntactically bad plan accepted")
	}
	rs.Faults = "off:c999@1s"
	if _, err := Run(rs); err == nil {
		t.Fatal("out-of-range plan accepted")
	}
}

func TestRunSpecValidate(t *testing.T) {
	good := RunSpec{
		Machine: "5218", Scheduler: "nest", Governor: "schedutil",
		Workload: "configure/gcc", Faults: "off:c2@1s",
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*RunSpec){
		"machine":   func(r *RunSpec) { r.Machine = "bogus" },
		"scheduler": func(r *RunSpec) { r.Scheduler = "fifo" },
		"governor":  func(r *RunSpec) { r.Governor = "ondemand" },
		"workload":  func(r *RunSpec) { r.Workload = "bogus" },
		"scale":     func(r *RunSpec) { r.Scale = -1 },
		"faults":    func(r *RunSpec) { r.Faults = "off:c2" },
	} {
		rs := good
		mut(&rs)
		if err := rs.Validate(); err == nil {
			t.Errorf("%s: bad spec validated", name)
		}
		// Run must refuse what Validate refuses, not run a default.
		if _, err := Run(rs); err == nil {
			t.Errorf("%s: bad spec ran", name)
		}
	}
}

func TestInvariantViolationsExportedAsCustomMetric(t *testing.T) {
	rs := RunSpec{
		Machine: "5218", Scheduler: "cfs", Governor: "schedutil",
		Workload: "configure/gcc", Scale: 0.01, Seed: 1,
		Faults: "off:c2@5ms", Check: invariant.New(),
	}
	res, err := Run(rs)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Custom["invariant_violations"]
	if !ok {
		t.Fatal("invariant_violations not exported")
	}
	if v != 0 {
		t.Fatalf("unexpected violations: %g", v)
	}
}

func TestResilienceExperimentSmoke(t *testing.T) {
	e, err := ByID("resilience")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(Options{Scale: 0.02, Runs: 1, Machines: []string{"5218"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sections) != 1 {
		t.Fatalf("got %d sections", len(rep.Sections))
	}
	sec := rep.Sections[0]
	if want := len(resilienceFaults) * len(resilienceConfigs); len(sec.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(sec.Rows), want)
	}
	for _, row := range sec.Rows {
		if row[4] != "0" { // violations column
			t.Errorf("%s/%s reported %s violations", row[0], row[1], row[4])
		}
	}
}
