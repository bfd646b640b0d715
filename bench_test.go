// Benchmarks of the experiment pool's parallel scaling: the same small
// grid on one worker and on GOMAXPROCS workers. The simulator's own
// speed is measured by simbench (BENCHMARK.json) and profiled through
// the internal/cpu benchmarks; the paper's artefacts are regenerated by
// cmd/experiments.
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// benchScale keeps each grid cell short.
const benchScale = 0.02

// gridSpecs builds a small Figure-5-style grid: both schedulers over
// the first four configure apps on the 5218. Eight independent cells —
// enough for the pool to spread across cores without making a single
// serial iteration slow.
func gridSpecs(seed uint64) []experiments.RunSpec {
	var specs []experiments.RunSpec
	for _, sched := range []string{"cfs", "nest"} {
		for _, app := range workload.ConfigureNames()[:4] {
			specs = append(specs, experiments.RunSpec{
				Machine: "5218", Scheduler: sched, Governor: "schedutil",
				Workload: "configure/" + app, Scale: benchScale, Seed: seed,
			})
		}
	}
	return specs
}

func benchGrid(b *testing.B, workers int) {
	b.Helper()
	cells := 0
	for i := 0; i < b.N; i++ {
		specs := gridSpecs(uint64(i + 1))
		if _, err := experiments.RunGrid(specs, experiments.PoolOptions{Workers: workers}); err != nil {
			b.Fatal(err)
		}
		cells += len(specs)
	}
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkGridSerial runs the grid on one worker; the baseline for the
// pool's scaling. Compare cells/s against BenchmarkGridParallel.
func BenchmarkGridSerial(b *testing.B) { benchGrid(b, 1) }

// BenchmarkGridParallel runs the same grid across GOMAXPROCS workers.
// Results are byte-identical to the serial run (see TestParallelMatchesSerial);
// only the wall time differs.
func BenchmarkGridParallel(b *testing.B) { benchGrid(b, runtime.GOMAXPROCS(0)) }
