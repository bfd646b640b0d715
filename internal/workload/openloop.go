package workload

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/proc"
	"repro/internal/sim"
)

// poolClass is one request class served by an open-loop pool. Priority
// 0 is the highest (shed last); service is the mean of a lognormal
// per-request service time with coefficient of variation cv, drawn from
// the handler's seeded RNG; slo is the class's latency target.
type poolClass struct {
	name    string
	prio    int
	share   float64
	service sim.Duration
	cv      float64
	slo     sim.Duration
}

// pool describes one open-loop serving workload: apache-siege's queue,
// the overload mix and diurnal curve, trace replay and every fan-out
// preset are pool values, and install is the one way any of them runs.
// register validates a pool (see check), so install only panics on a
// bug in a built-in preset.
type pool struct {
	handlers   int
	queueDepth int
	// requests is the base-arrival count at paper scale; a trace
	// replays its own length instead (see install).
	requests int
	arrival  ArrivalSpec
	// admission is a ParseAdmission spec; it is parsed afresh per
	// install because policies carry run state.
	admission string
	timeout   sim.Duration // per-attempt deadline; 0 = none
	retries   int
	backoff   sim.Duration // retry backoff base (doubles per attempt)
	classes   []poolClass
	// fan enables the fan-out request lifecycle (fanout.go): admitted
	// parents spawn fan.Width subtask attempts per stage instead of
	// entering the queue themselves; hedge is the duplicate-issue
	// policy for straggling slots.
	fan   *FanoutSpec
	hedge HedgeSpec
	// endToEnd selects what SLO accounting measures: queue wait plus
	// service (the overload and fan-out suites) or service only (the
	// classic §5.6 server profiles, preserving their semantics).
	endToEnd bool
}

// capacityRate returns the pool's nominal throughput in requests per
// second: handlers / weighted mean service time, where a fan-out
// request costs stages × width subtask services.
func (p *pool) capacityRate() float64 {
	var mean float64
	for _, cl := range p.classes {
		mean += cl.share * float64(cl.service)
	}
	if p.fan != nil {
		mean = float64(p.fan.Stages) * float64(p.fan.Width) * mean
	}
	return float64(p.handlers) / mean * float64(sim.Second)
}

// check validates the specs install parses, so that a bad user-supplied
// spec fails at registration rather than inside a run.
func (p *pool) check() error {
	if _, err := p.arrival.Source(); err != nil {
		return err
	}
	if _, err := ParseAdmission(p.admission); err != nil {
		return err
	}
	if p.fan != nil {
		if err := p.fan.Validate(); err != nil {
			return err
		}
	}
	return p.hedge.Validate()
}

// mustRegister registers a built-in preset.
func mustRegister(p pool, name, suite string) {
	if err := p.register(name, suite); err != nil {
		panic(err)
	}
}

// register validates p and registers it as a workload.
func (p pool) register(name, suite string) error {
	if err := p.check(); err != nil {
		return fmt.Errorf("workload %s: %w", name, err)
	}
	if _, err := ByName(name); err == nil {
		return fmt.Errorf("workload: %q already registered", name)
	}
	register(&Workload{
		Name:         name,
		Suite:        suite,
		PaperSeconds: 1,
		Install:      func(m *cpu.Machine, scale float64) { p.install(m, scale) },
	})
	return nil
}

// request is one delivery attempt flowing through the open-loop server.
// Requests are pooled on the owning openLoop: taken at arrival or retry,
// recycled when the attempt settles, so sustained load allocates no
// request structs.
type request struct {
	ol       *openLoop
	class    int // index into the pool's classes
	attempt  int // 0 = first try, incremented per client retry
	arrived  sim.Time
	deadline sim.Time // 0 = no deadline
	enqueued sim.Time
	// fan marks a subtask attempt of a fan-out parent (fanout.go):
	// slot/fstage locate it in the fan, hedgeN numbers duplicates
	// (0 = the slot's primary attempt).
	fan      *fanReq
	slot     int
	fstage   int
	hedgeN   int
	nextFree *request
}

// RunAt implements sim.Runner: a retry backoff timer expires and the
// attempt is delivered.
func (rq *request) RunAt(now sim.Time) { rq.ol.deliver(rq) }

// newRequest takes a request from the pool.
//
//pool:get
func (ol *openLoop) newRequest(class, attempt int) *request {
	rq := ol.reqFree
	if rq == nil {
		rq = &request{ol: ol}
	} else {
		ol.reqFree = rq.nextFree
		rq.nextFree = nil
	}
	rq.class, rq.attempt = class, attempt
	rq.arrived, rq.deadline, rq.enqueued = 0, 0, 0
	rq.fan, rq.slot, rq.fstage, rq.hedgeN = nil, 0, 0, 0
	return rq
}

// freeRequest returns a settled request to the pool.
//
//pool:put
func (ol *openLoop) freeRequest(rq *request) {
	rq.nextFree = ol.reqFree
	ol.reqFree = rq
}

// pumpRunner is the arrival pump's persistent engine callback: exactly
// one pump event is outstanding at a time, carrying the trace-supplied
// class name (if any) in pendingClass.
type pumpRunner struct{ ol *openLoop }

// RunAt implements sim.Runner: one base arrival lands.
func (p *pumpRunner) RunAt(now sim.Time) {
	ol := p.ol
	ol.delivered++
	ol.deliver(ol.newRequest(ol.classIndex(ol.pendingClass), 0))
	ol.scheduleNextArrival()
}

// Attempt outcomes. Every delivered attempt terminates in exactly one:
// completed (served within its deadline), timed out (expired in queue,
// or served too late), or shed (admission reject, full queue, or a
// CoDel-style drop at dequeue). The conservation tests in
// overload_test.go hold the workload to that.
const (
	outCompleted = iota
	outTimeoutQueue
	outTimeoutServed
	outShedAdmission
	outShedFull
	outShedCodel
	// Fan-out parents (fanout.go): the request was doomed because its
	// aggregation rule became unsatisfiable — a needed subtask slot
	// blew its stage deadline budget, or was shed with no hedge left.
	outTimeoutFanout
	outShedFanout
	nOutcomes
)

// outName maps outcomes to the obs Overload event's action strings.
var outName = [nOutcomes]string{
	outCompleted:     "completed",
	outTimeoutQueue:  "timeout_queue",
	outTimeoutServed: "timeout_served",
	outShedAdmission: "shed_admission",
	outShedFull:      "shed_full",
	outShedCodel:     "shed_codel",
	outTimeoutFanout: "timeout_fanout",
	outShedFanout:    "shed_fanout",
}

// tally counts settled attempts by outcome. Once the pool has shut
// down every offered attempt has settled, so offered is their sum.
type tally [nOutcomes]int64

func (c *tally) offered() int64 {
	var n int64
	for _, v := range c {
		n += v
	}
	return n
}

func (c *tally) timedOut() int64 {
	return c[outTimeoutQueue] + c[outTimeoutServed] + c[outTimeoutFanout]
}

func (c *tally) shed() int64 {
	return c[outShedAdmission] + c[outShedFull] + c[outShedCodel] + c[outShedFanout]
}

// openLoop drives an open-loop serving pool: an engine-scheduled
// arrival pump (never a task, so the offered load cannot be throttled
// by scheduling — that would quietly turn the source closed-loop), an
// admission policy at the bounded request queue, a handler pool, and a
// client model with deadlines and retry/backoff.
//
// Determinism: the pump draws from its own sim.Rand (seeded from the
// run seed), so the base arrival stream is identical across schedulers
// and policies at the same seed; the client RNG (backoff jitter) is
// separate so retries — which legitimately depend on system behavior —
// do not perturb base arrivals. Handlers draw service times from the
// machine RNG as all workloads do.
type openLoop struct {
	p     pool // the preset this run was installed from
	total int  // base arrivals to generate (traces may end earlier)
	src   ArrivalSource
	adm   admission
	svc   []func(*sim.Rand) int64 // per-class service-cycle draw
	acc   []sloAccum              // per-class latency and SLO accounting
	m     *cpu.Machine
	ch    *proc.Chan
	// queue holds admitted requests in arrival order; entries pair 1:1
	// with messages in ch (nil entries are shutdown sentinels).
	queue  []*request
	arrRng *sim.Rand
	cliRng *sim.Rand

	pump         pumpRunner
	pendingClass string   // class name for the outstanding pump event
	reqFree      *request //own:engine request free-list

	delivered int  // base arrivals delivered so far
	baseDone  bool // the pump has finished
	open      int  // attempt chains not yet terminal
	sentinels bool

	// Attempt accounting, aggregate and per class, plus client retries.
	out     tally
	byClass []tally
	retries int64

	// Fan-out state (fanout.go): record pools, the completed-subtask
	// latency histogram feeding percentile hedges, and subtask-attempt
	// conservation accounting (issued == settled + outstanding,
	// asserted by the fanout_conservation invariant probe).
	fanFree                 *fanReq     //own:engine
	htFree                  *hedgeTimer //own:engine
	fanLat                  metrics.LatHist
	fanIssued               int64
	fanOut                  [nSubOutcomes]int64 // settled subtask attempts by outcome
	fanHedges, fanHedgeWins int64
	fanOutstanding          int64
	fanStraggleSum          sim.Duration
	fanStages               int64
}

// install wires p into the machine — handlers under a "server-main"
// root, the arrival pump on the engine, the run's customs published
// when the root exits — and returns the live pool. The base-arrival
// count is p.requests scaled with a floor of 50, or for trace replay
// the trace's own length scaled with a floor of 1.
func (p pool) install(m *cpu.Machine, scale float64) *openLoop {
	src, err := p.arrival.Source()
	if err != nil {
		panic(fmt.Sprintf("workload: pool arrival spec: %v", err))
	}
	adm, err := ParseAdmission(p.admission)
	if err != nil {
		panic(fmt.Sprintf("workload: pool admission spec: %v", err))
	}
	total := scaleCount(p.requests, scale, 50)
	if p.arrival.Kind == ArrTrace {
		total = scaleCount(len(p.arrival.Trace), scale, 1)
	}
	ol := &openLoop{
		p:       p,
		total:   total,
		src:     src,
		adm:     adm,
		svc:     make([]func(*sim.Rand) int64, len(p.classes)),
		acc:     make([]sloAccum, len(p.classes)),
		m:       m,
		ch:      proc.NewChan("requests", p.queueDepth),
		arrRng:  sim.NewRand(m.Result().Seed ^ 0x61727276616c2121), // "arrval!!"
		cliRng:  sim.NewRand(m.Result().Seed ^ 0x636c69656e742121), // "client!!"
		byClass: make([]tally, len(p.classes)),
	}
	for i, cl := range p.classes {
		ol.svc[i] = jitterCycles(m, cl.service, cl.cv)
		ol.acc[i] = sloAccum{class: cl.name, slo: cl.slo}
	}
	ol.pump = pumpRunner{ol: ol}
	var actions []proc.Action
	for i := 0; i < p.handlers; i++ {
		actions = append(actions, proc.Fork{Name: fmt.Sprintf("handler-%d", i), Behavior: ol.handler()})
	}
	actions = append(actions, proc.WaitChildren{})
	m.Spawn("server-main", proc.Script(actions...))
	if p.fan != nil {
		if chk := m.Checker(); chk != nil {
			chk.RegisterProbe("fanout_conservation", ol.fanProbe)
		}
	}
	ol.finishOn()
	ol.scheduleNextArrival()
	return ol
}

// scheduleNextArrival draws the gap to the next base arrival and posts
// it; when the source is exhausted the pump retires.
func (ol *openLoop) scheduleNextArrival() {
	if ol.total > 0 && ol.delivered >= ol.total {
		ol.pumpDone()
		return
	}
	gap, class, ok := ol.src.Next(ol.arrRng)
	if !ok {
		ol.pumpDone()
		return
	}
	// The class-mix draw (classIndex) stays at delivery time, after the
	// gap elapses, preserving the arrival RNG's draw order exactly as
	// the pre-pooling closure did.
	ol.pendingClass = class
	ol.m.Engine().PostRunAfter(gap, &ol.pump)
}

func (ol *openLoop) pumpDone() {
	ol.baseDone = true
	ol.maybeShutdown()
}

// classIndex resolves a trace-supplied class name, or draws from the
// configured mix.
func (ol *openLoop) classIndex(name string) int {
	classes := ol.p.classes
	if name != "" {
		for i := range classes {
			if classes[i].name == name {
				return i
			}
		}
	}
	if len(classes) == 1 {
		return 0
	}
	f := ol.arrRng.Float64()
	acc := 0.0
	for i := range classes {
		acc += classes[i].share
		if f < acc {
			return i
		}
	}
	return len(classes) - 1
}

// deliver runs one attempt through admission into the queue. Called
// from engine context (arrival pump, retry timers).
func (ol *openLoop) deliver(rq *request) {
	now := ol.m.Engine().Now()
	rq.arrived = now
	if ol.p.timeout > 0 {
		rq.deadline = now + sim.Time(ol.p.timeout)
	}
	if rq.attempt == 0 {
		ol.open++
	}
	if !ol.adm.admit(now, ol.p.classes[rq.class].prio, len(ol.queue)) {
		ol.settle(rq, outShedAdmission, 0)
		return
	}
	if ol.p.fan != nil {
		// Fan-out parents never occupy the queue themselves: admission
		// is request-level, then the stage's subtask attempts carry the
		// work (and the queue entries) from here.
		ol.startFanout(rq)
		return
	}
	if !ol.m.InjectSend(ol.ch, false) {
		if h := ol.m.Obs(); h.Enabled() {
			h.Count("server.queue_full", 1)
		}
		ol.settle(rq, outShedFull, 0)
		return
	}
	rq.enqueued = now
	ol.queue = append(ol.queue, rq)
}

// pop removes the head request (nil = shutdown sentinel).
func (ol *openLoop) pop() (*request, bool) {
	if len(ol.queue) == 0 {
		return nil, false
	}
	rq := ol.queue[0]
	ol.queue[0] = nil
	ol.queue = ol.queue[1:]
	return rq, true
}

// handler returns one pool worker: receive, shed/expire or serve,
// settle, repeat — until the shutdown sentinel.
func (ol *openLoop) handler() proc.Behavior {
	const (
		stRecv = iota
		stPopped
		stServed
	)
	state := stRecv
	var cur *request
	var svcStart sim.Time
	return func(t *proc.Task, r *sim.Rand) proc.Action {
		for {
			switch state {
			case stRecv:
				state = stPopped
				return proc.Recv{Ch: ol.ch}
			case stPopped:
				rq, ok := ol.pop()
				if !ok || rq == nil {
					return proc.Exit{} // shutdown sentinel
				}
				now := t.Now
				if rq.fan != nil {
					// Subtask attempt: cancellation and the stage
					// deadline replace CoDel-style dequeue drops.
					if ol.subAtDequeue(rq, now) {
						state = stRecv
						continue
					}
					cur, svcStart = rq, now
					state = stServed
					return proc.Compute{Cycles: ol.svc[rq.class](r)}
				}
				sojourn := sim.Duration(now - rq.enqueued)
				if ol.adm.dropAtDequeue(now, sojourn, len(ol.queue)) {
					ol.settle(rq, outShedCodel, sojourn)
					state = stRecv
					continue
				}
				if rq.deadline > 0 && now > rq.deadline {
					ol.settle(rq, outTimeoutQueue, sojourn)
					state = stRecv
					continue
				}
				cur, svcStart = rq, now
				state = stServed
				return proc.Compute{Cycles: ol.svc[rq.class](r)}
			default: // stServed: the service compute just finished
				rq := cur
				cur = nil
				now := t.Now
				state = stRecv
				if rq.fan != nil {
					ol.subServed(rq, now)
					continue
				}
				if rq.deadline > 0 && now > rq.deadline {
					ol.settle(rq, outTimeoutServed, sim.Duration(now-rq.enqueued))
					continue
				}
				lat := sim.Duration(now - svcStart)
				if ol.p.endToEnd {
					lat = sim.Duration(now - rq.arrived)
				}
				ol.acc[rq.class].record(lat)
				ol.settle(rq, outCompleted, lat)
				continue
			}
		}
	}
}

// settle records an attempt's outcome, schedules a client retry when
// the outcome is retryable and tries remain, and — once the pump is
// done and every chain is terminal — shuts the pool down. Safe from
// both engine and handler context.
func (ol *openLoop) settle(rq *request, outcome int, sojourn sim.Duration) {
	ol.out[outcome]++
	ol.byClass[rq.class][outcome]++
	name := ol.p.classes[rq.class].name
	if h := ol.m.Obs(); h.Enabled() {
		// Completions go through the event path too (not a bare
		// counter bump) so an offline nestobs report can recompute
		// goodput from the stream alone; Sojourn carries the request
		// latency for completed, the queue delay otherwise.
		h.Emit(obs.Overload{
			T: ol.m.Engine().Now(), Action: outName[outcome], Class: name,
			Policy: ol.adm.name(), Attempt: rq.attempt, Sojourn: sojourn,
		})
	}
	if outcome != outCompleted && ol.p.retries > 0 && rq.attempt < ol.p.retries {
		ol.retries++
		// Exponential backoff with full jitter: mean base<<attempt,
		// drawn from the client RNG so base arrivals stay untouched.
		mean := ol.p.backoff << uint(rq.attempt)
		delay := ol.cliRng.Exp(mean) + 1
		if h := ol.m.Obs(); h.Enabled() {
			h.Emit(obs.Overload{
				T: ol.m.Engine().Now(), Action: "retry", Class: name,
				Policy: ol.adm.name(), Attempt: rq.attempt + 1,
			})
		}
		class, attempt := rq.class, rq.attempt
		ol.freeRequest(rq)
		next := ol.newRequest(class, attempt+1)
		ol.m.Engine().PostRunAfter(delay, next)
		return
	}
	ol.freeRequest(rq)
	ol.open--
	ol.maybeShutdown()
}

// maybeShutdown delivers one sentinel per handler once no more work can
// arrive. Forced sends bypass the queue bound: sentinels must not be
// lost to a saturated queue.
func (ol *openLoop) maybeShutdown() {
	if !ol.baseDone || ol.open != 0 || ol.sentinels {
		return
	}
	ol.sentinels = true
	for i := 0; i < ol.p.handlers; i++ {
		ol.queue = append(ol.queue, nil)
		ol.m.InjectSend(ol.ch, true)
	}
}

// finishOn publishes the run's customs when the root task exits: the
// request percentiles and SLO attainment over all classes, the attempt
// tally and, for fan-out pools, the subtask tally.
func (ol *openLoop) finishOn() {
	ol.m.OnExit(func(t *proc.Task) {
		if t.Name != "server-main" {
			return
		}
		publishRequests(ol.m, ol.acc)
		res := ol.m.Result()
		offered := ol.out.offered()
		res.SetCustom("ovl_offered", float64(offered))
		res.SetCustom("ovl_completed", float64(ol.out[outCompleted]))
		res.SetCustom("ovl_timeout", float64(ol.out.timedOut()))
		res.SetCustom("ovl_shed", float64(ol.out.shed()))
		res.SetCustom("ovl_retries", float64(ol.retries))
		res.SetCustom("queue_hwm", float64(ol.ch.HighWater))
		if base := offered - ol.retries; base > 0 {
			res.SetCustom("ovl_amp", float64(offered)/float64(base))
		}
		if secs := ol.m.Engine().Now().Seconds(); secs > 0 {
			res.SetCustom("ovl_goodput", float64(ol.out[outCompleted])/secs)
		}
		if ol.p.fan != nil {
			res.SetCustom("fan_issued", float64(ol.fanIssued))
			res.SetCustom("fan_done", float64(ol.fanOut[fsubDone]))
			res.SetCustom("fan_cancelled", float64(ol.fanOut[fsubCancel]))
			res.SetCustom("fan_timeout", float64(ol.fanOut[fsubTimeout]))
			res.SetCustom("fan_shed", float64(ol.fanOut[fsubShed]))
			res.SetCustom("fan_hedges", float64(ol.fanHedges))
			res.SetCustom("fan_hedge_wins", float64(ol.fanHedgeWins))
			if ol.fanStages > 0 {
				res.SetCustom("fan_straggle_us",
					float64(ol.fanStraggleSum)/float64(ol.fanStages)/float64(sim.Microsecond))
			}
		}
	})
}
