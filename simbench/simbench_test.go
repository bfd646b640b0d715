package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/cfs"
	nest "repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/invariant"
)

// TestTracedAssemblyMatchesRun is the harness-fidelity check: for one job
// per workload, under both schedulers, the traced pass's layer-by-layer
// assembly must produce the bytes experiments.Run produces, JSONL stream
// included.
func TestTracedAssemblyMatchesRun(t *testing.T) {
	for _, w := range benchWorkloads {
		for _, c := range w.cells(baselineSeed)[:len(schedulers)] {
			res, stream, err := runTimed(c, nil)
			if err != nil {
				t.Fatalf("%s: %v", c, err)
			}
			want, err := experiments.EncodeResult(res)
			if err != nil {
				t.Fatal(err)
			}
			var p probes
			tc, err := runTraced(c, &p)
			if err != nil {
				t.Fatalf("%s traced: %v", c, err)
			}
			got, err := experiments.EncodeResult(tc.res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: traced result differs from experiments.Run:\n got %s\nwant %s", c, got, want)
			}
			if (stream == nil) != (tc.stream == nil) {
				t.Fatalf("%s: stream presence differs", c)
			}
			if stream != nil && (stream.n != tc.stream.n || !bytes.Equal(stream.h.Sum(nil), tc.stream.h.Sum(nil))) {
				t.Errorf("%s: traced JSONL stream differs (%d vs %d bytes)", c, tc.stream.n, stream.n)
			}
			if tc.digest != digest(want, stream) {
				t.Errorf("%s: traced digest differs", c)
			}
			if p.selects.calls == 0 || p.gov.calls == 0 || p.hooks == 0 {
				t.Errorf("%s: probes saw no calls: %+v", c, p)
			}
			if c.Obs && p.obs.calls == 0 {
				t.Errorf("%s: recorder probe saw no events", c)
			}
		}
	}
}

// nestSizer mirrors the interface the runtime's gauge sampler asserts.
type nestSizer interface {
	PrimarySize() int
	ReserveSize() int
}

// TestPolicyProbeForwardsIntrospection checks that the policy probe keeps
// exactly the optional interfaces of the policy it wraps: a wrapped nest
// policy must still feed the gauge sampler and invariant.NestView, and a
// wrapped CFS must not pretend to have a nest.
func TestPolicyProbeForwardsIntrospection(t *testing.T) {
	var p probes
	wn := wrapPolicy(nest.Default(), &p)
	if _, ok := wn.(nestSizer); !ok {
		t.Error("wrapped nest policy lost PrimarySize/ReserveSize")
	}
	if _, ok := wn.(invariant.NestView); !ok {
		t.Error("wrapped nest policy lost InPrimary/InReserve")
	}
	wc := wrapPolicy(cfs.Default(), &p)
	if _, ok := wc.(nestSizer); ok {
		t.Error("wrapped cfs policy claims nest sizes")
	}
	if _, ok := wc.(invariant.NestView); ok {
		t.Error("wrapped cfs policy claims nest masks")
	}
	if wn.Name() != "nest" || wc.Name() != "cfs" {
		t.Errorf("names %q, %q", wn.Name(), wc.Name())
	}
}

// TestPassesRepeat runs both passes over a few cheap cells and checks
// that nothing fails, digests agree and counts are recorded.
func TestPassesRepeat(t *testing.T) {
	w, err := findWorkload("wake-storm")
	if err != nil {
		t.Fatal(err)
	}
	var cells []cell
	for _, c := range w.cells(7) {
		if c.Workload == "micro/schbench-m2-w8" {
			cells = append(cells, c)
		}
	}
	b := &bench{stderr: os.Stderr}
	timed := b.timedPass(cells, 0, nil)
	traced, err := b.tracedPass(cells, 0, timed.digests)
	if err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 {
		t.Fatalf("%d of %d cells failed", b.failed, b.attempted)
	}
	if timed.passes != minPasses || traced.passes != minPasses {
		t.Errorf("passes %d, %d; want %d", timed.passes, traced.passes, minPasses)
	}
	m := traced.metrics(len(cells))
	for _, name := range []string{"sim.events", "cpu.wakeups", "policy.selects", "governor.requests"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}
	if m["obs.events"] != 0 {
		t.Errorf("obs.events = %v without obs", m["obs.events"])
	}
}

func TestCellsPerPass(t *testing.T) {
	for _, w := range benchWorkloads {
		cells := w.cells(baselineSeed)
		if len(cells) < 100 {
			t.Errorf("%s: %d cells per pass, want at least 100", w.Name, len(cells))
		}
		seen := map[cell]bool{}
		for _, c := range cells {
			if seen[c] {
				t.Errorf("%s: duplicate cell %s", w.Name, c)
			}
			seen[c] = true
		}
		if w.cells(2)[0].Seed == cells[0].Seed {
			t.Errorf("%s: seeds 1 and 2 share cell seeds", w.Name)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/pelt.(*Signal).decayTo":       "pelt",
		"repro/internal/cpu.(*Machine).scheduleIn":    "cpu",
		"repro/internal/proc.(*Task).Step":            "cpu",
		"repro/internal/core.(*Policy).searchPrimary": "policy",
		"repro/internal/sched/schedtest.Run":          "policy",
		"repro/internal/governor.Schedutil.Request":   "freqmodel",
		"repro/internal/experiments.Run":              "other",
		"main.(*policyProbe).SelectCoreFork":          "harness",
		"math.Exp":                                    "",
		"runtime.mallocgc":                            "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink float64

// TestParseProfile decodes a real runtime/pprof profile of a busy loop in
// this package and checks the loop is charged to the harness.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	// The loop accumulates in a local: under the race detector a global's
	// every write calls into the race runtime, whose samples carry no Go
	// frame.
	var acc float64
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			acc += float64(i) * 1.0000001
		}
	}
	sink = acc
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Skip("no samples collected")
	}
	shares := p.layerShares()
	var total float64
	for _, v := range shares {
		total += v
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("shares sum to %v", total)
	}
	if shares["harness"] < 50 {
		t.Errorf("busy loop charged %v%% to the harness, want most of it: %v", shares["harness"], shares)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v", q)
	}
	if q := quantile(xs, 0.9); q != 4.6 {
		t.Errorf("p90 %v", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty %v", q)
	}
}

// TestManifestCurrent checks that manifest.json describes the workloads
// and metrics this code runs (regenerate it with -manifest). Its digests
// are not compared here: a digest that moves is reported by the benchmark
// itself, as information for review.
func TestManifestCurrent(t *testing.T) {
	var got manifest
	if err := json.Unmarshal(manifestJSON, &got); err != nil {
		t.Fatal(err)
	}
	for name, w := range got.Workloads {
		if w.Digest == "" {
			t.Errorf("manifest.json records no digest for %s", name)
		}
		w.Digest = ""
		got.Workloads[name] = w
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(staticManifest())
	if !bytes.Equal(gj, wj) {
		t.Errorf("manifest.json is stale; regenerate with: go run . -manifest > manifest.json")
	}
}

// TestBenchmarkJSON checks that the repository's BENCHMARK.json lists the
// workloads this code runs and the metrics, with their units, that it
// reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloadNames())
	}
	check := func(kind string, got []metric, want []metricDef) {
		var w []metric
		for _, d := range want {
			w = append(w, metric{d.Name, d.Unit})
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s: BENCHMARK.json lists %v, code reports %v", kind, got, w)
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
