package main

import (
	"fmt"

	"repro/internal/sim"
)

// governorName is the governor of every cell; the paper's headline runs
// use schedutil.
const governorName = "schedutil"

// schedulers are the two policies every cell runs under.
var schedulers = []string{"cfs", "nest"}

// obsSampleEvery is the gauge-sampling period of the obs-stream cells.
const obsSampleEvery = 4 * sim.Millisecond

// job is one simulated workload on one machine preset.
type job struct {
	Machine  string
	Workload string
}

func (j job) String() string { return j.Machine + " " + j.Workload }

// cell is one experiments.Run call: a job under one scheduler with one
// seed, always with the schedutil governor.
type cell struct {
	job
	Sched string
	Seed  uint64
	Scale float64
	// Obs attaches a JSONL hub with gauge sampling (obs-stream only).
	Obs bool
}

func (c cell) String() string { return runSpec(c).String() }

// benchWorkload is one named benchmark workload: a job list crossed with
// the schedulers and a run of derived seeds. Why each was chosen is
// recorded in BENCHMARK.json.
type benchWorkload struct {
	Name string
	Jobs []job
	// Scale shortens every job (experiments.RunSpec.Scale).
	Scale float64
	// Seeds is how many derived seeds one pass runs: at least 100 cells,
	// so that p90 has ten cells beyond it, and about two host seconds of
	// them, so that a run repeats every cell several times.
	Seeds int
	Obs   bool
	// Check is the job run once, untimed, under nest with an invariant
	// checker attached.
	Check job
	// Loads and Bypasses name the simulator layers the workload exercises
	// and those it leaves idle, so a change to one layer has a workload
	// predicted to move and one predicted to stay.
	Loads    []string
	Bypasses []string
}

func on(machine string, workloads ...string) []job {
	out := make([]job, len(workloads))
	for i, w := range workloads {
		out[i] = job{Machine: machine, Workload: w}
	}
	return out
}

func concat(lists ...[]job) []job {
	var out []job
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

func prefixed(prefix string, names ...string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + n
	}
	return out
}

var benchWorkloads = []benchWorkload{
	{
		Name: "paper-batch",
		Jobs: concat(
			on("5218", prefixed("configure/", "erlang", "ffmpeg", "gcc", "gdb", "imagemagick",
				"linux", "llvm_ninja", "llvm_unix", "mplayer", "nodejs", "php")...),
			on("6130-4", "dacapo/h2", "dacapo/tradebeans", "dacapo/graphchi-eval"),
			on("5218", "nas/cg.C", "nas/lu.C", "nas/mg.C"),
			on("6130-2", "phoronix/zstd-compression-7", "multi/zstd+libgav1"),
			on("4650g", "configure/llvm_ninja"),
		),
		// At 1/100 of paper length the batch cells last well under a
		// millisecond, and the median cell's time is then mostly machine
		// set-up, which a shared host's interference slows far more than
		// the simulation itself.
		Scale:    0.04,
		Seeds:    5,
		Check:    job{Machine: "5218", Workload: "configure/gcc"},
		Loads:    []string{"cpu", "pelt", "freqmodel", "governor", "sim"},
		Bypasses: []string{"workload pump", "obs"},
	},
	{
		Name: "wake-storm",
		Jobs: concat(
			on("5218", "micro/hackbench"),
			on("5218", prefixed("micro/schbench-", "m16-w16", "m16-w32", "m2-w16", "m2-w2",
				"m2-w32", "m2-w8", "m32-w16", "m32-w32", "m32-w8", "m8-w16", "m8-w32", "m8-w8")...),
		),
		Scale:    0.01,
		Seeds:    4,
		Check:    job{Machine: "5218", Workload: "micro/schbench-m2-w8"},
		Loads:    []string{"sim", "cpu", "policies"},
		Bypasses: []string{"pelt (minor)", "workload pump", "obs"},
	},
	{
		Name: "serve-fanout",
		Jobs: concat(
			on("6130-2", prefixed("overload/", "diurnal",
				"mix-1-cap", "mix-1-codel", "mix-1-none", "mix-1-token",
				"mix-1.5-cap", "mix-1.5-codel", "mix-1.5-none", "mix-1.5-token",
				"mix-2-cap", "mix-2-codel", "mix-2-none", "mix-2-token")...),
			on("6130-2", prefixed("fanout/", "quorum",
				"w16-0.7-none", "w16-0.7-p95", "w16-1.2-none", "w16-1.2-p95",
				"w8-0.7-none", "w8-0.7-p95", "w8-1.2-none", "w8-1.2-p95")...),
		),
		Scale:    0.01,
		Seeds:    12,
		Check:    job{Machine: "6130-2", Workload: "fanout/w8-1.2-p95"},
		Loads:    []string{"workload pump", "metrics", "sim"},
		Bypasses: []string{"obs", "pelt (minor)"},
	},
	{
		Name:     "obs-stream",
		Jobs:     concat(on("5218", "configure/llvm_ninja"), on("6130-2", "overload/mix-1.5-codel")),
		Scale:    0.01,
		Seeds:    100,
		Obs:      true,
		Check:    job{Machine: "5218", Workload: "configure/llvm_ninja"},
		Loads:    []string{"obs", "cpu", "workload pump"},
		Bypasses: []string{},
	},
}

func findWorkload(name string) (*benchWorkload, error) {
	for i := range benchWorkloads {
		if benchWorkloads[i].Name == name {
			return &benchWorkloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// cellSeed derives the i-th cell seed from the benchmark's seed argument.
// Distinct arguments never share a cell seed while i stays below 1000.
func cellSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) }

// cells lists one pass: seed-major, then job, then scheduler.
func (w *benchWorkload) cells(seed uint64) []cell {
	var out []cell
	for i := 0; i < w.Seeds; i++ {
		for _, j := range w.Jobs {
			for _, s := range schedulers {
				out = append(out, cell{job: j, Sched: s, Seed: cellSeed(seed, i), Scale: w.Scale, Obs: w.Obs})
			}
		}
	}
	return out
}

// checkCell is the invariant-checked cell, seeded like the first pass seed.
func (w *benchWorkload) checkCell(seed uint64) cell {
	return cell{job: w.Check, Sched: "nest", Seed: cellSeed(seed, 0), Scale: w.Scale, Obs: w.Obs}
}
