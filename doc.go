// Package repro reproduces "OS Scheduling with Nest: Keeping Tasks Close
// Together on Warm Cores" (Lawall et al., EuroSys 2022) as a pure-Go
// discrete-event simulation.
//
// The paper's contribution — the Nest task-placement policy — lives in
// internal/core. The substrates it needs are built from scratch:
// machine topology and turbo-frequency hardware models
// (internal/machine, internal/freqmodel), Linux power governors
// (internal/governor), a CFS core-selection model (internal/cfs), the
// Smove baseline (internal/smove), a machine runtime with run queues,
// ticks, idle balancing and energy accounting (internal/cpu), and the
// paper's workload families (internal/workload).
//
// Every figure and table of the paper's evaluation can be regenerated
// with cmd/experiments, and simbench/ (BENCHMARK.json) measures the
// simulator's own speed. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
package repro
