package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestEventStreamGolden pins sha256 of the whole JSONL event stream —
// decisions plus 4 ms gauge batches — for five TestResultGolden cells: a
// Nest cell, a CFS cell, the fault-plan cell, the CoDel overload mix and
// a hedged fan-out cell. Together the streams carry every wire kind but
// invariant_violation, so a change to any event's JSON bytes (field
// order, omitempty, number or string formatting) moves a digest.
func TestEventStreamGolden(t *testing.T) {
	cases := []struct {
		rs  RunSpec
		sha string
	}{
		{RunSpec{Machine: "5218", Scheduler: "nest", Governor: "schedutil", Workload: "configure/llvm_ninja", Scale: 0.05, Seed: 1},
			"e59e868664a767a22caeabe68c9bd872d2aa2d946bb639119a8ace33d4368fa6"},
		{RunSpec{Machine: "5218", Scheduler: "cfs", Governor: "schedutil", Workload: "configure/llvm_ninja", Scale: 0.05, Seed: 1},
			"57acf3f5d5f63232dbe7082a96c29dd946260f6e0a9df281f00c216ed2a20ebe"},
		{RunSpec{Machine: "5218", Scheduler: "nest", Governor: "schedutil", Workload: "configure/llvm_ninja", Scale: 0.05, Seed: 1,
			Faults: "off:c2@5ms+10ms,on:c2@5ms,throttle:s0@4ms+15ms=1.8GHz"},
			"00613517031e41c07535051f8da47ac5a01107486692ce4ade04fa7e805a01bd"},
		{RunSpec{Machine: "6130-2", Scheduler: "nest", Governor: "schedutil", Workload: workload.OverloadMixName(1.5, "codel"), Scale: 0.05, Seed: 1},
			"44a9639ce29aa961be4d55e079742efe6b8418fc61268c697c760cf97877b190"},
		{RunSpec{Machine: "6130-2", Scheduler: "nest", Governor: "schedutil", Workload: workload.FanoutMixName(16, 0.7, "p95"), Scale: 0.05, Seed: 1},
			"251ac7fcd7320b5b93acc8ca77af7027ebd90f5ef9670b32f7cacf2e8785c4ba"},
	}
	kinds := make([]kindSet, len(cases))
	t.Run("cells", func(t *testing.T) {
		for i, c := range cases {
			i, c := i, c
			t.Run(c.rs.String(), func(t *testing.T) {
				t.Parallel()
				var buf bytes.Buffer
				rec := obs.NewJSONL(&buf)
				seen := kindSet{}
				rs := c.rs
				rs.Obs = obs.New(rec, seen)
				rs.SampleEvery = 4 * sim.Millisecond
				if _, err := Run(rs); err != nil {
					t.Fatal(err)
				}
				if err := rec.Flush(); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != c.sha {
					t.Errorf("sha256 = %s, want %s (%d lines, %d bytes)", got, c.sha, rec.Lines(), buf.Len())
				}
				kinds[i] = seen
			})
		}
	})
	all := map[string]bool{}
	for _, k := range kinds {
		if k == nil {
			return // the cell failed to run
		}
		for kind := range k {
			all[kind] = true
		}
	}
	var missing []string
	for _, kind := range obs.WireKinds() {
		if !all[kind] && kind != "invariant_violation" {
			missing = append(missing, kind)
		}
	}
	if len(missing) > 0 {
		t.Errorf("no golden stream carries wire kinds %v", missing)
	}
}

// kindSet records the wire kinds of the events it sees.
type kindSet map[string]bool

func (k kindSet) Record(ev obs.Event) { k[ev.Kind()] = true }
