package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/experiments"
)

// baselineSeed is the seed manifest.json records digests for.
const baselineSeed = 1

// manifest holds what BENCHMARK.json's fixed keys cannot: the baseline
// seed, each workload's jobs, scale, seeds per pass, the layers it loads
// and bypasses and its output digest at the baseline seed, the packages
// of each profile layer, and how each metric is measured. It is committed
// as manifest.json and regenerated with -manifest. Every cell runs a job
// under each of the schedulers with the schedutil governor.
type manifest struct {
	BaselineSeed uint64                      `json:"baseline_seed"`
	Workloads    map[string]manifestWorkload `json:"workloads"`
	Layers       map[string][]string         `json:"layers"`
	Metrics      map[string]string           `json:"metrics"`
}

type manifestWorkload struct {
	Jobs     []string `json:"jobs"`
	Scale    float64  `json:"scale"`
	Seeds    int      `json:"seeds_per_pass"`
	Obs      bool     `json:"obs"`
	Check    string   `json:"invariant_check"`
	Loads    []string `json:"loads"`
	Bypasses []string `json:"bypasses"`
	Digest   string   `json:"baseline_digest,omitempty"`
}

// staticManifest is the manifest without the baseline digests.
func staticManifest() manifest {
	m := manifest{
		BaselineSeed: baselineSeed,
		Workloads:    map[string]manifestWorkload{},
		Layers:       layerPackages,
		Metrics:      map[string]string{},
	}
	for _, w := range benchWorkloads {
		mw := manifestWorkload{
			Scale: w.Scale, Seeds: w.Seeds, Obs: w.Obs, Check: w.Check.String(),
			Loads: w.Loads, Bypasses: w.Bypasses,
		}
		for _, j := range w.Jobs {
			mw.Jobs = append(mw.Jobs, j.String())
		}
		m.Workloads[w.Name] = mw
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m.Metrics[d.Name] = d.What
	}
	return m
}

// writeManifest runs one pass of every workload at the baseline seed and
// writes the manifest with the resulting digests.
func writeManifest(w io.Writer) error {
	m := staticManifest()
	for i := range benchWorkloads {
		bw := &benchWorkloads[i]
		cells := bw.cells(baselineSeed)
		ds := make([][sha256.Size]byte, len(cells))
		for j, c := range cells {
			res, stream, err := runTimed(c, nil)
			if err == nil {
				err = checkResult(res)
			}
			if err != nil {
				return fmt.Errorf("%s: %v", c, err)
			}
			enc, err := experiments.EncodeResult(res)
			if err != nil {
				return err
			}
			ds[j] = digest(enc, stream)
		}
		mw := m.Workloads[bw.Name]
		mw.Digest = combined(ds)
		m.Workloads[bw.Name] = mw
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// recordedNote compares a workload's digest with the one manifest.json
// records for the baseline seed. A difference is reported, not failed:
// it means the simulated bits moved since the manifest was written.
func recordedNote(workload string, seed uint64, sum string) string {
	var m manifest
	if err := json.Unmarshal(manifestJSON, &m); err != nil {
		return "manifest.json unreadable: " + err.Error()
	}
	if seed != m.BaselineSeed {
		return fmt.Sprintf("manifest.json records seed %d only", m.BaselineSeed)
	}
	switch rec := m.Workloads[workload].Digest; rec {
	case "":
		return "no digest recorded in manifest.json"
	case sum:
		return "matches manifest.json"
	default:
		return "differs from manifest.json " + rec + ": simulated bits moved"
	}
}
