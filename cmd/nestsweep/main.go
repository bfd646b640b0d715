// Command nestsweep sweeps one Nest parameter across a list of values on
// one workload, the tool behind the §5.2/§5.3 parameter studies
// ("multiplying each of the parameters shown in Table 1 by 0.5, 2 or
// 10").
//
// Usage:
//
//	nestsweep -param smax -values 0,1,2,4,8,20 -workload dacapo/h2 -machine 6130-2
//	nestsweep -param rmax -values 0,2,5,10,50 -workload configure/llvm_ninja
//
// Values are in ticks for premove/smax and counts for rmax/rimpatient;
// 0 means the feature is disabled outright. Every flag is checked before
// the first run; a usage error exits 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// sweep is a checked command line: the default-Nest baseline cell and
// the parameter values to compare against it, each with the Nest
// variant that runs it (0 selects the toggle that disables the feature).
type sweep struct {
	base   experiments.RunSpec // Scheduler "nest"
	runs   int
	param  string
	values []int
	scheds []string
}

// parseArgs parses and checks every flag without running anything. It
// reports a usage error on stderr and returns it.
func parseArgs(args []string, stderr io.Writer) (*sweep, error) {
	fs := flag.NewFlagSet("nestsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		param       = fs.String("param", "smax", "parameter: premove, smax, rmax, rimpatient")
		values      = fs.String("values", "0,1,2,4,20", "comma-separated values (0 disables the feature)")
		wl          = fs.String("workload", "dacapo/h2", "workload")
		machineName = fs.String("machine", "6130-2", "machine preset")
		gov         = fs.String("gov", "schedutil", "governor")
		runs        = fs.Int("runs", 3, "repetitions")
		scale       = fs.Float64("scale", experiments.DefaultScale, "workload scale")
		seed        = fs.Uint64("seed", 1, "base seed")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	usage := func(err error) (*sweep, error) {
		fmt.Fprintln(stderr, "nestsweep:", err)
		return nil, err
	}
	off, ok := experiments.NestOff(*param)
	if !ok {
		return usage(fmt.Errorf("unknown parameter %q (premove, smax, rmax, rimpatient)", *param))
	}
	if *runs < 1 {
		return usage(errors.New("-runs must be at least 1"))
	}
	sw := &sweep{
		base: experiments.RunSpec{
			Machine: *machineName, Scheduler: "nest", Governor: *gov,
			Workload: *wl, Scale: *scale, Seed: *seed,
		},
		runs: *runs, param: *param,
	}
	if err := sw.base.Validate(); err != nil {
		return usage(err)
	}
	for _, vs := range strings.Split(*values, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(vs))
		if err != nil || v < 0 {
			return usage(fmt.Errorf("bad -values entry %q: want an integer >= 0", vs))
		}
		sched := fmt.Sprintf("nest:%s=%d", *param, v)
		if v == 0 {
			sched = "nest:" + off
		}
		sw.values = append(sw.values, v)
		sw.scheds = append(sw.scheds, sched)
	}
	return sw, nil
}

func main() {
	sw, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}

	measure := func(sched string) (float64, float64, error) {
		rs := sw.base
		rs.Scheduler = sched
		res, err := experiments.RunRepeats(rs, sw.runs)
		if err != nil {
			return 0, 0, err
		}
		return metrics.Mean(metrics.Runtimes(res)), metrics.Mean(metrics.Energies(res)), nil
	}

	baseT, baseE, err := measure(sw.base.Scheduler)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nestsweep:", err)
		os.Exit(1)
	}
	fmt.Printf("sweep of %s on %s (%s, %s-governor, %d runs); default Nest: %.4fs %.1fJ\n",
		sw.param, sw.base.Workload, sw.base.Machine, sw.base.Governor, sw.runs, baseT, baseE)
	fmt.Printf("%-12s %10s %10s %10s %10s\n", sw.param, "runtime", "vs default", "energy", "vs default")

	for i, v := range sw.values {
		tm, en, err := measure(sw.scheds[i])
		if err != nil {
			fmt.Fprintln(os.Stderr, "nestsweep:", err)
			os.Exit(1)
		}
		label := strconv.Itoa(v)
		if v == 0 {
			label = "off"
		}
		fmt.Printf("%-12s %9.4fs %+9.1f%% %9.1fJ %+9.1f%%\n",
			label, tm, 100*metrics.Speedup(baseT, tm), en, 100*metrics.Speedup(baseE, en))
	}
}
