package main

// metricDef names one reported metric. Which direction is better is
// recorded in BENCHMARK.json only.
type metricDef struct {
	Name string
	Unit string
	// What says how the value is measured; manifest.json records it.
	What string
}

// endToEnd are the timed pass's metrics, measured with tracing off.
// failed_cell_ratio is printed but not in the JSON metrics: it is zero on
// a healthy commit, and the result line carries it as failed/attempted.
var endToEnd = []metricDef{
	{Name: "sim_s_per_s", Unit: "sim_s/s",
		What: "simulated seconds per host second over one pass of cell times, each cell's time being the median over passes of its experiments.Run call plus the collection of its garbage"},
	{Name: "cell_ms_p50", Unit: "ms",
		What: "median over cells of a cell's host milliseconds (experiments.Run plus the collection of its garbage)"},
	{Name: "cell_ms_p90", Unit: "ms",
		What: "90th percentile over cells of a cell's host milliseconds (experiments.Run plus the collection of its garbage)"},
	{Name: "setup_s", Unit: "s",
		What: "median over fresh processes, started at even intervals through the timed pass, of host seconds from exec to the end of one warm-up cell"},
	{Name: "peak_rss_mb", Unit: "MB",
		What: "VmHWM of the benchmark process at exit"},
}

// perLayer are the traced pass's metrics. Counts are per pass and exact.
var perLayer = []metricDef{
	{Name: "sim.events", Unit: "count",
		What: "engine steps (sim.Engine.Steps) per pass"},
	{Name: "sim.ns_per_event", Unit: "ns",
		What: "host ns of Machine.Run per engine step"},
	{Name: "prof.sim_pct", Unit: "%",
		What: "CPU profile share of internal/sim"},
	{Name: "prof.cpu_pct", Unit: "%",
		What: "CPU profile share of internal/cpu, proc and machine"},
	{Name: "cpu.new_us", Unit: "us",
		What: "host us per cpu.New call"},
	{Name: "cpu.ctx_switches", Unit: "count",
		What: "Result.Counters.CtxSwitches per pass"},
	{Name: "cpu.migrations", Unit: "count",
		What: "Result.Counters.Migrations per pass"},
	{Name: "cpu.wakeups", Unit: "count",
		What: "Result.Counters.Wakeups per pass"},
	{Name: "cpu.forks", Unit: "count",
		What: "Result.Counters.Forks per pass"},
	{Name: "cpu.load_balances", Unit: "count",
		What: "Result.Counters.LoadBalances per pass"},
	{Name: "prof.pelt_pct", Unit: "%",
		What: "CPU profile share of internal/pelt, math.Exp included"},
	{Name: "prof.freqmodel_pct", Unit: "%",
		What: "CPU profile share of internal/freqmodel and governor"},
	{Name: "governor.requests", Unit: "count",
		What: "Governor.Request calls per pass"},
	{Name: "governor.ns_per_call", Unit: "ns",
		What: "host ns per Governor.Request call, clock reads included"},
	{Name: "policy.selects", Unit: "count",
		What: "SelectCoreFork plus SelectCoreWakeup calls per pass"},
	{Name: "policy.ns_per_select", Unit: "ns",
		What: "host ns per core selection, clock reads included"},
	{Name: "policy.cores_examined_per_select", Unit: "cores",
		What: "Result.Counters.CoresExamined per core selection"},
	{Name: "policy.hook_calls", Unit: "count",
		What: "policy lifecycle hook calls per pass"},
	{Name: "prof.policy_pct", Unit: "%",
		What: "CPU profile share of internal/cfs, core, smove, sched and naive"},
	{Name: "workload.install_us", Unit: "us",
		What: "host us per Workload.Install call"},
	{Name: "prof.workload_pct", Unit: "%",
		What: "CPU profile share of internal/workload"},
	{Name: "workload.attempts", Unit: "count",
		What: "offered request attempts (ovl_offered) per pass; 0 without an open loop"},
	{Name: "workload.goodput_ratio", Unit: "ratio",
		What: "ovl_completed over ovl_offered; 0 without an open loop"},
	{Name: "workload.hedge_waste_ratio", Unit: "ratio",
		What: "fan_cancelled over fan_issued; 0 without fan-out"},
	{Name: "prof.metrics_pct", Unit: "%",
		What: "CPU profile share of internal/metrics"},
	{Name: "metrics.encode_us", Unit: "us",
		What: "host us per experiments.EncodeResult call"},
	{Name: "obs.events", Unit: "count",
		What: "events reaching the recorder per pass; 0 with obs off"},
	{Name: "obs.bytes", Unit: "bytes",
		What: "JSONL bytes written per pass; 0 with obs off"},
	{Name: "obs.ns_per_event", Unit: "ns",
		What: "host ns per recorded event in the JSONL recorder; 0 with obs off"},
	{Name: "prof.obs_pct", Unit: "%",
		What: "CPU profile share of internal/obs"},
	{Name: "prof.runtime_pct", Unit: "%",
		What: "CPU profile share of stacks with no simulator or harness frame, mostly the collector's background work; the traced pass forces no collections"},
	{Name: "gc.cycles", Unit: "count",
		What: "collections the runtime started on its own (/gc/cycles/automatic) per traced pass"},
	{Name: "gc.alloc_mb_per_sim_s", Unit: "MB/sim_s",
		What: "heap MB allocated per simulated second in the traced pass, the probes' and hashing's allocation included"},
	{Name: "prof.other_pct", Unit: "%",
		What: "CPU profile share of the remaining internal packages (experiments, invariant, fault)"},
	{Name: "prof.harness_pct", Unit: "%",
		What: "CPU profile share of the benchmark's own probes and hashing"},
	{Name: "trace.overhead_pct", Unit: "%",
		What: "how much lower sim_s_per_s is in the traced pass, taken over all its calls, than in the timed pass"},
}
