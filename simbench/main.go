// Command simbench is the simulator's benchmark. One invocation runs one
// named workload: a list of simulation cells (machine × scheduler ×
// schedutil × workload × seed) executed one after another on one
// goroutine, a closed loop with a single client.
//
//	go run . -workload paper-batch -seed 1 -seconds 25 -trace 0
//
// With -trace 0 it runs the timed pass: experiments.Run once per cell, for
// whole passes over the cell list until -seconds have elapsed, and prints
// the end-to-end metrics. A cell's host time is the median over its
// passes, so a burst of interference from other tenants of a shared host,
// shorter than half the run, does not move the result. setup_s is the
// median of fresh processes started at even intervals through the timed
// pass, for the same reason. With -trace 1 the
// timed pass gets half of -seconds and is followed by a traced pass of the
// other half that assembles each cell from the layers' public
// constructors with counting probes injected, under runtime/pprof; it
// prints the per-layer metrics.
//
// Every invocation checks the simulated outputs: each cell's
// EncodeResult digest must repeat in every pass and match between the
// timed and traced passes, every exact count must repeat, and one
// invariant-checked cell must report no violations. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/invariant"
)

// setupProbes is how many fresh processes setup_s takes the median of.
const setupProbes = 31

// minPasses is the fewest passes each phase runs: every digest and count
// is compared against repeats, and each cell's median host time has three
// samples or more.
const minPasses = 3

//go:embed manifest.json
var manifestJSON []byte

func main() {
	// One client on one core: the collector then shares the simulation's
	// core instead of competing for a second one, which on a shared host
	// makes host times both lower and far steadier.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      int
	setupProbe bool
	manifest   bool
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed the cell seeds are derived from")
	fs.Float64Var(&o.seconds, "seconds", 25, "host seconds to measure for (whole passes, at least 3 per phase)")
	fs.IntVar(&o.trace, "trace", 0, "0: timed pass, end-to-end metrics; 1: also a traced pass, per-layer metrics")
	fs.BoolVar(&o.setupProbe, "setup-probe", false, "run the warm-up cell, print ready and exit (used for setup_s)")
	fs.BoolVar(&o.manifest, "manifest", false, "print manifest.json for the baseline seed and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive, got %g", o.seconds)
	}
	if o.seed >= math.MaxUint64/1000 {
		return o, fmt.Errorf("-seed %d too large", o.seed)
	}
	return o, nil
}

func workloadNames() []string {
	var out []string
	for _, w := range benchWorkloads {
		out = append(out, w.Name)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 2
	}
	if o.manifest {
		if err := writeManifest(stdout); err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 2
	}
	cells := w.cells(o.seed)
	if o.setupProbe {
		if _, _, err := runTimed(cells[0], nil); err != nil {
			fmt.Fprintln(stderr, "simbench: warm-up cell:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}

	b := &bench{stderr: stderr}
	b.attempt(cells[0], "warm-up", func() error {
		res, _, err := runTimed(cells[0], nil)
		if err == nil {
			err = checkResult(res)
		}
		return err
	})
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		budget /= 2
	}
	var setup *setupSampler
	if o.trace == 0 {
		if setup, err = newSetupSampler(o, budget); err != nil {
			fmt.Fprintln(stderr, "simbench: setup:", err)
			return 1
		}
	}
	timed := b.timedPass(cells, budget, setup)
	chk := w.checkCell(o.seed)
	b.attempt(chk, "invariant check", func() error {
		res, _, err := runTimed(chk, invariant.New())
		if err == nil {
			err = checkResult(res)
		}
		return err
	})

	fmt.Fprintf(stdout, "workload %s, seed %d: %d cells per pass, %d timed passes\n",
		w.Name, o.seed, len(cells), timed.passes)
	sum := combined(timed.digests)
	fmt.Fprintf(stdout, "output digest %s (%s)\n", sum, recordedNote(w.Name, o.seed, sum))

	var values map[string]float64
	var defs []metricDef
	if o.trace == 0 {
		secs, err := setup.median()
		if err != nil {
			fmt.Fprintln(stderr, "simbench: setup:", err)
			return 1
		}
		defs = endToEnd
		values = timed.metrics(secs)
	} else {
		traced, err := b.tracedPass(cells, budget, timed.digests)
		if err != nil {
			fmt.Fprintln(stderr, "simbench: traced pass:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%d traced passes\n", traced.passes)
		defs = perLayer
		values = traced.metrics(len(cells))
		// The traced pass leaves collection to the runtime, so some of its
		// cells pay for earlier cells' garbage; its speed is therefore taken
		// over all its calls, not from per-cell medians, which would drop
		// those collections.
		values["trace.overhead_pct"] = 100 * (1 - traced.times.simPerSTotal()/timed.times.simPerS())
	}
	fmt.Fprintf(stdout, "%-34s %14.6g %s\n", "failed_cell_ratio",
		float64(b.failed)/float64(b.attempted), "ratio")
	if err := b.report(stdout, defs, values); err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	return 0
}

// bench tallies cell attempts and failures across the phases.
type bench struct {
	stderr    io.Writer
	attempted int
	failed    int
}

// attempt runs one cell check, counting it and reporting a failure.
func (b *bench) attempt(c cell, phase string, fn func() error) {
	b.attempted++
	if err := fn(); err != nil {
		b.failed++
		fmt.Fprintf(b.stderr, "simbench: %s: %s: %v\n", phase, c, err)
	}
}

// setupSampler measures setup_s. Each probe starts a fresh copy of this
// program, which initialises, runs the warm-up cell and prints "ready",
// and times it from start to ready. The probes are spread evenly over the
// timed pass, between cells and outside their timing, so that setup_s
// sees the host as the cells do and a short burst of noise moves few
// probes.
type setupSampler struct {
	exe   string
	o     options
	every time.Duration
	start time.Time
	secs  []float64
	err   error
}

func newSetupSampler(o options, budget time.Duration) (*setupSampler, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return &setupSampler{exe: exe, o: o, every: budget / setupProbes}, nil
}

// due takes a probe once the pass has reached the next probe's time.
func (s *setupSampler) due() {
	next := time.Duration(len(s.secs))*s.every + s.every/2
	if s.err == nil && len(s.secs) < setupProbes && time.Since(s.start) >= next {
		s.probe()
	}
}

func (s *setupSampler) probe() {
	secs, err := setupOnce(s.exe, s.o)
	if err != nil {
		s.err = err
		return
	}
	s.secs = append(s.secs, secs)
}

// median takes the probes the pass ended before reaching, then returns
// the median of all of them.
func (s *setupSampler) median() (float64, error) {
	for s.err == nil && len(s.secs) < setupProbes {
		s.probe()
	}
	if s.err != nil {
		return 0, s.err
	}
	return quantile(s.secs, 0.5), nil
}

func setupOnce(exe string, o options) (float64, error) {
	cmd := exec.Command(exe, "-setup-probe", "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(out).ReadString('\n')
	secs := time.Since(start).Seconds()
	// Drain so the child never blocks on a full pipe, then reap it.
	_, _ = io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	if readErr != nil || line != "ready\n" {
		return 0, fmt.Errorf("setup probe printed %q", line)
	}
	return secs, nil
}

// cellTimes records each cell's simulated seconds and its host seconds in
// every pass.
type cellTimes struct {
	sim  []float64
	host [][]float64
}

func newCellTimes(n int) *cellTimes {
	return &cellTimes{sim: make([]float64, n), host: make([][]float64, n)}
}

func (ct *cellTimes) add(i int, sim, host float64) {
	ct.sim[i] = sim
	ct.host[i] = append(ct.host[i], host)
}

// medians returns each measured cell's median host seconds and the
// simulated seconds of those cells.
func (ct *cellTimes) medians() (sim, host []float64) {
	for i, hs := range ct.host {
		if len(hs) > 0 {
			sim = append(sim, ct.sim[i])
			host = append(host, quantile(hs, 0.5))
		}
	}
	return sim, host
}

// simPerS is simulated seconds per host second over one pass of median
// cell times.
func (ct *cellTimes) simPerS() float64 {
	sim, host := ct.medians()
	var s, h float64
	for i := range sim {
		s += sim[i]
		h += host[i]
	}
	return s / h
}

// simTotal is the simulated seconds of every measured call.
func (ct *cellTimes) simTotal() float64 {
	var s float64
	for i, hs := range ct.host {
		s += ct.sim[i] * float64(len(hs))
	}
	return s
}

// simPerSTotal is simulated seconds per host second over every measured
// call.
func (ct *cellTimes) simPerSTotal() float64 {
	var h float64
	for _, hs := range ct.host {
		for _, x := range hs {
			h += x
		}
	}
	return ct.simTotal() / h
}

// timedResult is the timed pass's outcome.
type timedResult struct {
	passes  int
	times   *cellTimes
	digests [][sha256.Size]byte // per cell, from the first pass
}

func (t *timedResult) metrics(setup float64) map[string]float64 {
	_, host := t.times.medians()
	ms := make([]float64, len(host))
	for i, h := range host {
		ms[i] = h * 1e3
	}
	return map[string]float64{
		"sim_s_per_s": t.times.simPerS(),
		"cell_ms_p50": quantile(ms, 0.5),
		"cell_ms_p90": quantile(ms, 0.9),
		"setup_s":     setup,
		"peak_rss_mb": peakRSSMB(),
	}
}

// runPasses calls fn on every cell, in whole passes over cells, until
// budget has elapsed and at least minPasses are done, counting each call
// as an attempt; it returns the number of passes.
func (b *bench) runPasses(cells []cell, budget time.Duration, phase string, fn func(pass, i int, c cell) error) int {
	start := time.Now()
	pass := 0
	for ; pass < minPasses || time.Since(start) < budget; pass++ {
		for i, c := range cells {
			b.attempt(c, phase, func() error { return fn(pass, i, c) })
		}
	}
	return pass
}

// timedPass runs experiments.Run over cells in whole passes, timing each
// call and checking that every cell's digest repeats. setup, when not
// nil, takes its probes between cells.
//
// Each call's time includes a collection of the heap right after it, so
// a cell is charged for collecting its own garbage and for nothing else.
// Left to the runtime, a short cell's time would depend on whether the
// collector happens to run down earlier cells' garbage during it, which
// splits the times of identical cells into two modes and moves the median
// between them from run to run; the per-cell median would also drop the
// collector's cost, which a change to allocation should move.
func (b *bench) timedPass(cells []cell, budget time.Duration, setup *setupSampler) *timedResult {
	t := &timedResult{times: newCellTimes(len(cells)), digests: make([][sha256.Size]byte, len(cells))}
	runtime.GC()
	if setup != nil {
		setup.start = time.Now()
	}
	t.passes = b.runPasses(cells, budget, "timed", func(pass, i int, c cell) error {
		if setup != nil {
			setup.due()
		}
		t0 := time.Now()
		res, stream, err := runTimed(c, nil)
		runtime.GC()
		dt := time.Since(t0)
		if err != nil {
			return err
		}
		if err := checkResult(res); err != nil {
			return err
		}
		enc, err := experiments.EncodeResult(res)
		if err != nil {
			return fmt.Errorf("encode result: %w", err)
		}
		d := digest(enc, stream)
		if pass == 0 {
			t.digests[i] = d
		} else if d != t.digests[i] {
			return errors.New("output digest differs from the first pass")
		}
		t.times.add(i, res.Runtime.Seconds(), dt.Seconds())
		return nil
	})
	return t
}

// Indexes of the exact per-cell counts.
const (
	cEvents = iota
	cCtxSwitches
	cMigrations
	cWakeups
	cForks
	cLoadBalances
	cCoresExamined
	cSelects
	cHooks
	cGovCalls
	cAttempts
	cCompleted
	cFanIssued
	cFanCancelled
	cObsEvents
	cObsBytes
	nCounts
)

type counts [nCounts]int64

func cellCounts(tc tracedCell, p *probes) counts {
	r := tc.res
	var c counts
	c[cEvents] = int64(tc.events)
	c[cCtxSwitches] = r.Counters.CtxSwitches
	c[cMigrations] = r.Counters.Migrations
	c[cWakeups] = r.Counters.Wakeups
	c[cForks] = r.Counters.Forks
	c[cLoadBalances] = r.Counters.LoadBalances
	c[cCoresExamined] = r.Counters.CoresExamined
	c[cSelects] = p.selects.calls
	c[cHooks] = p.hooks
	c[cGovCalls] = p.gov.calls
	c[cAttempts] = int64(r.Custom["ovl_offered"])
	c[cCompleted] = int64(r.Custom["ovl_completed"])
	c[cFanIssued] = int64(r.Custom["fan_issued"])
	c[cFanCancelled] = int64(r.Custom["fan_cancelled"])
	c[cObsEvents] = p.obs.calls
	if tc.stream != nil {
		c[cObsBytes] = tc.stream.n
	}
	return c
}

// tracedResult is the traced pass's outcome.
type tracedResult struct {
	passes   int
	p        probes // summed over every pass
	perCell  []counts
	pass     counts // summed over the first pass
	times    *cellTimes
	shares   map[string]float64
	gcCycles uint64 // automatic collections only
	allocB   uint64
}

// tracedPass runs the layer-by-layer assembly over cells in whole passes
// under the CPU profiler. Every cell's digest must match the timed pass's
// and its counts must repeat in every pass. Unlike the timed pass it
// forces no collections, so the collector's cycles and profile share are
// the ones the simulator's own allocation triggers.
func (b *bench) tracedPass(cells []cell, budget time.Duration, want [][sha256.Size]byte) (*tracedResult, error) {
	t := &tracedResult{perCell: make([]counts, len(cells)), times: newCellTimes(len(cells))}
	var prof bytes.Buffer
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	gcBefore := autoGCCycles()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	t.passes = b.runPasses(cells, budget, "traced", func(pass, i int, c cell) error {
		var p probes
		t0 := time.Now()
		tc, err := runTraced(c, &p)
		dt := time.Since(t0) - time.Duration(p.encodeNS)
		if err != nil {
			return err
		}
		if err := checkResult(tc.res); err != nil {
			return err
		}
		if tc.digest != want[i] {
			return errors.New("traced output digest differs from the timed pass")
		}
		n := cellCounts(tc, &p)
		if pass == 0 {
			t.perCell[i] = n
			for k := range n {
				t.pass[k] += n[k]
			}
		} else if n != t.perCell[i] {
			return fmt.Errorf("nondeterministic counts: %v in pass 1, %v in pass %d", t.perCell[i], n, pass+1)
		}
		t.p.add(p)
		t.times.add(i, tc.res.Runtime.Seconds(), dt.Seconds())
		return nil
	})
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	t.gcCycles = autoGCCycles() - gcBefore
	t.allocB = after.TotalAlloc - before.TotalAlloc
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	t.shares = p.layerShares()
	return t, nil
}

// autoGCCycles is the number of collections the runtime has started on
// its own, leaving out forced ones (runtime.GC).
func autoGCCycles() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/cycles/automatic:gc-cycles"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// ratio is a/b, or 0 when the layer did no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (t *tracedResult) metrics(cellsPerPass int) map[string]float64 {
	calls := float64(cellsPerPass * t.passes)
	n := t.pass
	p := t.p
	return map[string]float64{
		"sim.events":                       float64(n[cEvents]),
		"sim.ns_per_event":                 ratio(float64(p.runNS), float64(n[cEvents])*float64(t.passes)),
		"prof.sim_pct":                     t.shares["sim"],
		"prof.cpu_pct":                     t.shares["cpu"],
		"cpu.new_us":                       ratio(float64(p.newNS)/1e3, calls),
		"cpu.ctx_switches":                 float64(n[cCtxSwitches]),
		"cpu.migrations":                   float64(n[cMigrations]),
		"cpu.wakeups":                      float64(n[cWakeups]),
		"cpu.forks":                        float64(n[cForks]),
		"cpu.load_balances":                float64(n[cLoadBalances]),
		"prof.pelt_pct":                    t.shares["pelt"],
		"prof.freqmodel_pct":               t.shares["freqmodel"],
		"governor.requests":                float64(n[cGovCalls]),
		"governor.ns_per_call":             p.gov.nsPerCall(),
		"policy.selects":                   float64(n[cSelects]),
		"policy.ns_per_select":             p.selects.nsPerCall(),
		"policy.cores_examined_per_select": ratio(float64(n[cCoresExamined]), float64(n[cSelects])),
		"policy.hook_calls":                float64(n[cHooks]),
		"prof.policy_pct":                  t.shares["policy"],
		"workload.install_us":              ratio(float64(p.installNS)/1e3, calls),
		"prof.workload_pct":                t.shares["workload"],
		"workload.attempts":                float64(n[cAttempts]),
		"workload.goodput_ratio":           ratio(float64(n[cCompleted]), float64(n[cAttempts])),
		"workload.hedge_waste_ratio":       ratio(float64(n[cFanCancelled]), float64(n[cFanIssued])),
		"prof.metrics_pct":                 t.shares["metrics"],
		"metrics.encode_us":                ratio(float64(p.encodeNS)/1e3, calls),
		"obs.events":                       float64(n[cObsEvents]),
		"obs.bytes":                        float64(n[cObsBytes]),
		"obs.ns_per_event":                 p.obs.nsPerCall(),
		"prof.obs_pct":                     t.shares["obs"],
		"prof.runtime_pct":                 t.shares["runtime"],
		"gc.cycles":                        float64(t.gcCycles) / float64(t.passes),
		"gc.alloc_mb_per_sim_s":            ratio(float64(t.allocB)/1e6, t.times.simTotal()),
		"prof.other_pct":                   t.shares["other"],
		"prof.harness_pct":                 t.shares["harness"],
	}
}

// report prints every metric of defs by name and unit, then the result
// line.
func (b *bench) report(w io.Writer, defs []metricDef, values map[string]float64) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured (%v)", d.Name, v)
		}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.Name, v, d.Unit)
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no values).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// combined folds the per-cell digests of a pass, in cell order, into the
// workload's output digest.
func combined(ds [][sha256.Size]byte) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
