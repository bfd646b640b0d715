package obs

import (
	"repro/internal/sim"
)

// ---- Gauge events ----------------------------------------------------
//
// The periodic sampler (internal/cpu, Config.SampleEvery) emits one
// batch of gauges per sample instant: a CoreGauge for every core in
// ascending core order (state "offline" while a core is unplugged), one
// NestGauge when the scheduler exposes nest sizes, and a SocketGauge per
// socket in ascending socket order. The
// batches ride the ordinary event stream, so -events files interleave
// them with decisions and a -series file can carry them alone.

// CoreGauge is one core's state at a sample instant: what it is doing
// ("busy", "spin", "idle", "offline"), its current frequency, and its
// run-queue depth (runnable tasks waiting, not counting the running one).
type CoreGauge struct {
	T       sim.Time `json:"t_ns"`
	Core    int      `json:"core"`
	State   string   `json:"state"`
	FreqMHz int      `json:"freq_mhz"`
	Queue   int      `json:"queue"`
}

// Kind implements Event.
func (CoreGauge) Kind() string { return "core_gauge" }

func (CoreGauge) count(c *Counters) { c.Add("gauge.core", 1) }

func (e CoreGauge) appendJSON(w *wire) {
	w.i64("t_ns", int64(e.T))
	w.int("core", e.Core)
	w.str("state", e.State)
	w.int("freq_mhz", e.FreqMHz)
	w.int("queue", e.Queue)
}

// NestGauge is the nest's primary and reserve size at a sample instant.
// Emitted only when the active scheduler maintains a nest.
type NestGauge struct {
	T       sim.Time `json:"t_ns"`
	Primary int      `json:"primary"`
	Reserve int      `json:"reserve"`
}

// Kind implements Event.
func (NestGauge) Kind() string { return "nest_gauge" }

func (NestGauge) count(c *Counters) { c.Add("gauge.nest", 1) }

func (e NestGauge) appendJSON(w *wire) {
	w.i64("t_ns", int64(e.T))
	w.int("primary", e.Primary)
	w.int("reserve", e.Reserve)
}

// SocketGauge is one socket's occupancy at a sample instant: how many of
// its online cores are busy. The busy share is Busy/Online.
type SocketGauge struct {
	T      sim.Time `json:"t_ns"`
	Socket int      `json:"socket"`
	Busy   int      `json:"busy"`
	Online int      `json:"online"`
}

// Kind implements Event.
func (SocketGauge) Kind() string { return "socket_gauge" }

func (SocketGauge) count(c *Counters) { c.Add("gauge.socket", 1) }

func (e SocketGauge) appendJSON(w *wire) {
	w.i64("t_ns", int64(e.T))
	w.int("socket", e.Socket)
	w.int("busy", e.Busy)
	w.int("online", e.Online)
}

// RunSummary closes one run's event stream with its headline results, so
// offline tooling (cmd/nestobs diff) can compare runs without the full
// result encoding. Durations are virtual nanoseconds; the wake
// percentiles are the histogram-derived tail of metrics.Latency.
type RunSummary struct {
	Machine   string  `json:"machine"`
	Scheduler string  `json:"sched"`
	Governor  string  `json:"gov"`
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	RuntimeNS int64   `json:"runtime_ns"`
	EnergyJ   float64 `json:"energy_j"`
	WakeP50   int64   `json:"wake_p50_ns"`
	WakeP95   int64   `json:"wake_p95_ns"`
	WakeP99   int64   `json:"wake_p99_ns"`
	WakeP999  int64   `json:"wake_p999_ns"`
	Wakeups   int64   `json:"wakeups"`
}

// Kind implements Event.
func (RunSummary) Kind() string { return "run_summary" }

func (RunSummary) count(c *Counters) { c.Add("summaries", 1) }

func (e RunSummary) appendJSON(w *wire) {
	w.str("machine", e.Machine)
	w.str("sched", e.Scheduler)
	w.str("gov", e.Governor)
	w.str("workload", e.Workload)
	w.u64("seed", e.Seed)
	w.i64("runtime_ns", e.RuntimeNS)
	w.float("energy_j", e.EnergyJ)
	w.i64("wake_p50_ns", e.WakeP50)
	w.i64("wake_p95_ns", e.WakeP95)
	w.i64("wake_p99_ns", e.WakeP99)
	w.i64("wake_p999_ns", e.WakeP999)
	w.i64("wakeups", e.Wakeups)
}
