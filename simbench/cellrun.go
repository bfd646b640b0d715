package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"time"

	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/governor"
	"repro/internal/invariant"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// hashWriter is the in-memory sink of an obs stream: it keeps only a
// SHA-256 of the bytes and their count.
type hashWriter struct {
	h hash.Hash
	n int64
}

func newHashWriter() *hashWriter { return &hashWriter{h: sha256.New()} }

func (w *hashWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

// digest is a cell's output check: the SHA-256 of its encoded result
// (experiments.EncodeResult), chained with the SHA-256 of its JSONL
// stream when it has one.
func digest(enc []byte, stream *hashWriter) [sha256.Size]byte {
	h := sha256.New()
	h.Write(enc)
	if stream != nil {
		h.Write(stream.h.Sum(nil))
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// cellError turns a panic inside a cell into an error, so that a broken
// cell counts as failed instead of ending the benchmark.
func cellError(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}

// checkResult rejects results that completed but are not usable.
func checkResult(res *metrics.Result) error {
	if res.Custom["truncated"] != 0 {
		return errors.New("run truncated")
	}
	if res.Runtime <= 0 {
		return errors.New("zero simulated runtime")
	}
	if v := res.Custom["invariant_violations"]; v != 0 {
		return fmt.Errorf("%g invariant violations", v)
	}
	return nil
}

func runSpec(c cell) experiments.RunSpec {
	return experiments.RunSpec{
		Machine: c.Machine, Scheduler: c.Sched, Governor: governorName,
		Workload: c.Workload, Scale: c.Scale, Seed: c.Seed,
	}
}

// runTimed runs c through experiments.Run, the call the timed pass
// measures. chk, when non-nil, is attached as the run's invariant checker.
func runTimed(c cell, chk *invariant.Checker) (res *metrics.Result, stream *hashWriter, err error) {
	defer cellError(&err)
	rs := runSpec(c)
	rs.Check = chk
	var rec *obs.JSONLRecorder
	if c.Obs {
		stream = newHashWriter()
		rec = obs.NewJSONL(stream)
		rs.Obs = obs.New(rec)
		rs.SampleEvery = obsSampleEvery
	}
	res, err = experiments.Run(rs)
	if err == nil && rec != nil {
		err = rec.Flush()
	}
	return res, stream, err
}

// timeEvery is the sampling period of probe timing: every call is
// counted, every timeEvery-th is timed, so the clock reads add little to
// calls that take only tens of nanoseconds.
const timeEvery = 16

// callStat counts the calls through one probe and times a sample of them.
type callStat struct {
	calls, timed, ns int64
}

// start counts a call and returns its start time when it is sampled.
func (s *callStat) start() (time.Time, bool) {
	s.calls++
	if s.calls%timeEvery != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (s *callStat) stop(t0 time.Time, sampled bool) {
	if sampled {
		s.ns += int64(time.Since(t0))
		s.timed++
	}
}

func (s *callStat) add(o callStat) {
	s.calls += o.calls
	s.timed += o.timed
	s.ns += o.ns
}

// nsPerCall is the mean host ns of the sampled calls (0 without any).
func (s *callStat) nsPerCall() float64 { return ratio(float64(s.ns), float64(s.timed)) }

// probes accumulates what the traced pass's wrappers count and time.
type probes struct {
	selects, gov, obs                 callStat
	hooks                             int64
	newNS, installNS, runNS, encodeNS int64
}

func (p *probes) add(q probes) {
	p.selects.add(q.selects)
	p.gov.add(q.gov)
	p.obs.add(q.obs)
	p.hooks += q.hooks
	p.newNS += q.newNS
	p.installNS += q.installNS
	p.runNS += q.runNS
	p.encodeNS += q.encodeNS
}

// policyProbe delegates to a scheduling policy, counting every call and
// timing a sample of core selections.
type policyProbe struct {
	inner sched.Policy
	p     *probes
}

func (w *policyProbe) Name() string { return w.inner.Name() }

func (w *policyProbe) SelectCoreFork(m sched.Machine, parent, child *proc.Task, parentCore machine.CoreID) machine.CoreID {
	t, sampled := w.p.selects.start()
	c := w.inner.SelectCoreFork(m, parent, child, parentCore)
	w.p.selects.stop(t, sampled)
	return c
}

func (w *policyProbe) SelectCoreWakeup(m sched.Machine, t *proc.Task, wakerCore machine.CoreID, sync bool) machine.CoreID {
	start, sampled := w.p.selects.start()
	c := w.inner.SelectCoreWakeup(m, t, wakerCore, sync)
	w.p.selects.stop(start, sampled)
	return c
}

func (w *policyProbe) ScheduledIn(m sched.Machine, t *proc.Task, c machine.CoreID) {
	w.p.hooks++
	w.inner.ScheduledIn(m, t, c)
}

func (w *policyProbe) Blocked(m sched.Machine, t *proc.Task, c machine.CoreID) {
	w.p.hooks++
	w.inner.Blocked(m, t, c)
}

func (w *policyProbe) Exited(m sched.Machine, t *proc.Task, c machine.CoreID, coreIdle bool) {
	w.p.hooks++
	w.inner.Exited(m, t, c, coreIdle)
}

func (w *policyProbe) IdleSpin(m sched.Machine, c machine.CoreID) sim.Duration {
	w.p.hooks++
	return w.inner.IdleSpin(m, c)
}

func (w *policyProbe) CoreOffline(m sched.Machine, c machine.CoreID) {
	w.p.hooks++
	w.inner.CoreOffline(m, c)
}

func (w *policyProbe) CoreOnline(m sched.Machine, c machine.CoreID) {
	w.p.hooks++
	w.inner.CoreOnline(m, c)
}

// nestPolicy is a policy with the nest introspection the runtime
// type-asserts: nest sizes for the gauge sampler and masks for
// invariant.NestView.
type nestPolicy interface {
	sched.Policy
	PrimarySize() int
	ReserveSize() int
	InPrimary(c machine.CoreID) bool
	InReserve(c machine.CoreID) bool
}

// nestPolicyProbe is policyProbe for a nest policy; it forwards the
// introspection methods so the wrapped run samples and checks exactly
// what the bare run does.
type nestPolicyProbe struct {
	*policyProbe
	nest nestPolicy
}

func (w nestPolicyProbe) PrimarySize() int                { return w.nest.PrimarySize() }
func (w nestPolicyProbe) ReserveSize() int                { return w.nest.ReserveSize() }
func (w nestPolicyProbe) InPrimary(c machine.CoreID) bool { return w.nest.InPrimary(c) }
func (w nestPolicyProbe) InReserve(c machine.CoreID) bool { return w.nest.InReserve(c) }

// wrapPolicy returns the probe for pol, keeping pol's optional interfaces.
func wrapPolicy(pol sched.Policy, p *probes) sched.Policy {
	w := &policyProbe{inner: pol, p: p}
	if np, ok := pol.(nestPolicy); ok {
		return nestPolicyProbe{policyProbe: w, nest: np}
	}
	return w
}

// governorProbe delegates to a governor, counting requests and timing a
// sample of them.
type governorProbe struct {
	inner governor.Governor
	p     *probes
}

func (g *governorProbe) Name() string { return g.inner.Name() }

func (g *governorProbe) Request(spec *machine.Spec, util float64, active bool) governor.Request {
	t, sampled := g.p.gov.start()
	r := g.inner.Request(spec, util, active)
	g.p.gov.stop(t, sampled)
	return r
}

// recorderProbe delegates to an obs recorder, counting events and timing
// a sample of them.
type recorderProbe struct {
	inner obs.Recorder
	p     *probes
}

func (r *recorderProbe) Record(ev obs.Event) {
	t, sampled := r.p.obs.start()
	r.inner.Record(ev)
	r.p.obs.stop(t, sampled)
}

// tracedCell is the outcome of one cell built layer by layer.
type tracedCell struct {
	res    *metrics.Result
	stream *hashWriter
	digest [sha256.Size]byte
	events uint64 // engine steps
}

// runTraced assembles c from each layer's public constructors, as
// experiments.Run does, with probes injected at the policy, governor and
// obs recorder seams, and times the construction, install, run and encode
// steps. Its result bytes must equal runTimed's.
func runTraced(c cell, p *probes) (out tracedCell, err error) {
	defer cellError(&err)
	spec, err := machine.Preset(c.Machine)
	if err != nil {
		return out, err
	}
	sf, err := experiments.Schedulers(c.Sched)
	if err != nil {
		return out, err
	}
	gov, err := governor.ByName(governorName)
	if err != nil {
		return out, err
	}
	w, err := workload.ByName(c.Workload)
	if err != nil {
		return out, err
	}
	var hub *obs.Hub
	var rec *obs.JSONLRecorder
	cfg := cpu.Config{
		Spec:   spec,
		Gov:    &governorProbe{inner: gov, p: p},
		Policy: wrapPolicy(sf(), p),
		Engine: sim.NewEngine(),
		Seed:   c.Seed,
	}
	if c.Obs {
		out.stream = newHashWriter()
		rec = obs.NewJSONL(out.stream)
		hub = obs.New(&recorderProbe{inner: rec, p: p})
		hub.Emit(obs.RunInfo{
			Machine: c.Machine, Scheduler: c.Sched, Governor: governorName,
			Workload: c.Workload, Scale: c.Scale, Seed: c.Seed,
		})
		cfg.Obs = hub
		cfg.SampleEvery = obsSampleEvery
	}

	t0 := time.Now()
	m := cpu.New(cfg)
	t1 := time.Now()
	w.Install(m, c.Scale)
	t2 := time.Now()
	res := m.Run(0)
	t3 := time.Now()
	p.newNS += int64(t1.Sub(t0))
	p.installNS += int64(t2.Sub(t1))
	p.runNS += int64(t3.Sub(t2))

	res.Workload = c.Workload
	if hub != nil {
		tail := res.WakeLatency.Tail()
		hub.Emit(obs.RunSummary{
			Machine: c.Machine, Scheduler: c.Sched, Governor: governorName,
			Workload: c.Workload, Seed: c.Seed,
			RuntimeNS: int64(res.Runtime), EnergyJ: res.EnergyJ,
			WakeP50: int64(tail.P50), WakeP95: int64(tail.P95),
			WakeP99: int64(tail.P99), WakeP999: int64(tail.P999),
			Wakeups: int64(res.WakeLatency.Count()),
		})
		if err := rec.Flush(); err != nil {
			return out, err
		}
	}
	t4 := time.Now()
	enc, err := experiments.EncodeResult(res)
	p.encodeNS += int64(time.Since(t4))
	if err != nil {
		return out, fmt.Errorf("encode result: %w", err)
	}
	out.res, out.digest, out.events = res, digest(enc, out.stream), m.Engine().Steps()
	return out, nil
}
