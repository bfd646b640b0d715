// Command nestfig renders paper-style figures as SVG files.
//
//	nestfig -kind trace -workload configure/llvm_ninja -machine 5218 -sched cfs -out cfs.svg
//	nestfig -kind underload -workload configure/llvm_ninja -out underload.svg
//	nestfig -kind timeseries -workload dacapo/h2 -machine 6130-4 -sched nest -out h2.svg
//	nestfig -kind speedup -suite configure -machine 5218 -out fig5.svg
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/svgplot"
	"repro/internal/workload"
)

// figure is one nestfig invocation: which plot, of which cell.
type figure struct {
	kind, workload, suite, machine, sched, gov string
	scale                                      float64
	windowMS                                   int
	seed                                       uint64
}

func main() {
	var (
		fig figure
		out string
	)
	flag.StringVar(&fig.kind, "kind", "trace", "figure kind: trace, underload, timeseries, speedup")
	flag.StringVar(&fig.workload, "workload", "configure/llvm_ninja", "workload (trace/underload/timeseries)")
	flag.StringVar(&fig.suite, "suite", "configure", "suite for -kind speedup: configure, dacapo, nas")
	flag.StringVar(&fig.machine, "machine", "5218", "machine preset")
	flag.StringVar(&fig.sched, "sched", "cfs", "scheduler (trace/underload/timeseries)")
	flag.StringVar(&fig.gov, "gov", "schedutil", "governor")
	flag.Float64Var(&fig.scale, "scale", 0.1, "workload scale")
	flag.IntVar(&fig.windowMS, "window", 300, "trace window in milliseconds")
	flag.Uint64Var(&fig.seed, "seed", 1, "seed")
	flag.StringVar(&out, "out", "figure.svg", "output SVG path")
	flag.Parse()

	// Render in memory first so a bad flag or a failed run never
	// truncates an existing output file.
	var buf bytes.Buffer
	if err := render(&buf, fig); err != nil {
		fail(err)
	}
	if err := os.WriteFile(out, buf.Bytes(), 0o666); err != nil {
		fail(err)
	}
	fmt.Println("wrote", out)
}

// render runs the cell(s) fig names and writes the SVG to w.
func render(w io.Writer, fig figure) error {
	spec, err := machine.Preset(fig.machine)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("%s, %s-%s on %s", fig.workload, fig.sched, fig.gov, spec.Topo.Name())

	switch fig.kind {
	case "trace", "underload":
		tr := metrics.NewTrace(0, sim.Time(fig.windowMS)*sim.Millisecond)
		if _, err := experiments.Run(experiments.RunSpec{
			Machine: fig.machine, Scheduler: fig.sched, Governor: fig.gov,
			Workload: fig.workload, Scale: fig.scale, Seed: fig.seed, Trace: tr,
		}); err != nil {
			return err
		}
		if fig.kind == "trace" {
			svgplot.Heatmap(w, title, tr, metrics.EdgesFor(spec))
		} else {
			svgplot.UnderloadSeries(w, "underload: "+title, tr.UnderloadSeries)
		}

	case "timeseries":
		var gauges obs.SeriesBuffer
		if _, err := experiments.Run(experiments.RunSpec{
			Machine: fig.machine, Scheduler: fig.sched, Governor: fig.gov,
			Workload: fig.workload, Scale: fig.scale, Seed: fig.seed,
			Obs: obs.New(&gauges), SampleEvery: sim.Tick,
		}); err != nil {
			return err
		}
		svgplot.TimeSeries(w, title, gauges.Cores, float64(spec.MaxTurbo()))

	case "speedup":
		var wls []string
		for _, wl := range workload.Suite(fig.suite) {
			wls = append(wls, wl.Name)
		}
		if len(wls) == 0 {
			return fmt.Errorf("unknown suite %q", fig.suite)
		}
		seriesNames := []string{"CFS-perf", "Nest-sched", "Nest-perf"}
		configs := [][2]string{{"cfs", "performance"}, {"nest", "schedutil"}, {"nest", "performance"}}
		var groups []svgplot.BarGroup
		for _, wl := range wls {
			base, err := mean(fig.machine, "cfs", "schedutil", wl, fig.scale, fig.seed)
			if err != nil {
				return err
			}
			g := svgplot.BarGroup{Label: shortName(wl)}
			for _, c := range configs {
				v, err := mean(fig.machine, c[0], c[1], wl, fig.scale, fig.seed)
				if err != nil {
					return err
				}
				g.Values = append(g.Values, 100*metrics.Speedup(base, v))
			}
			groups = append(groups, g)
		}
		svgplot.Bars(w, fmt.Sprintf("%s suite on %s: speedup vs CFS-schedutil (%%)", fig.suite, spec.Topo.Name()),
			seriesNames, groups)

	default:
		return fmt.Errorf("unknown -kind %q", fig.kind)
	}
	return nil
}

func mean(mach, sched, gov, wl string, scale float64, seed uint64) (float64, error) {
	rs, err := experiments.RunRepeats(experiments.RunSpec{
		Machine: mach, Scheduler: sched, Governor: gov,
		Workload: wl, Scale: scale, Seed: seed,
	}, 2)
	if err != nil {
		return 0, err
	}
	return metrics.Mean(metrics.Runtimes(rs)), nil
}

func shortName(wl string) string {
	if i := strings.IndexByte(wl, '/'); i >= 0 {
		return wl[i+1:]
	}
	return wl
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "nestfig:", err)
	os.Exit(1)
}
