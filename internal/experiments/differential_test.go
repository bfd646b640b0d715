package experiments

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/workload"
)

// differentialSpecs is the heap-vs-wheel coverage grid: representative
// cells across the figure suites (fork/wake-heavy configure, NAS
// barrier kernels, DaCapo), both main schedulers plus the ablation
// variants and smove, a deterministic fault plan, and an overload cell
// with retries — the posting patterns that exercise every wheel level.
// The cells after the overload cell complete the machine × workload ×
// scheduler families of the paper's artefacts that no other test runs:
// CFS's h2 on the 4-socket 6130 (Figs 8–11), the §5.4 noattach
// ablation on MG, a Phoronix background test under Nest (Table 4),
// the §5.6 micro-benchmarks under Nest, the multi-application mix and
// the mono-socket 4650G.
func differentialSpecs() []RunSpec {
	return []RunSpec{
		{Machine: "5218", Scheduler: "nest", Governor: "schedutil", Workload: "configure/llvm_ninja", Scale: 0.01, Seed: 1},
		{Machine: "5218", Scheduler: "cfs", Governor: "schedutil", Workload: "configure/llvm_ninja", Scale: 0.01, Seed: 1},
		{Machine: "6130-2", Scheduler: "nest", Governor: "performance", Workload: "nas/lu.C", Scale: 0.002, Seed: 3},
		{Machine: "5218", Scheduler: "smove", Governor: "schedutil", Workload: "dacapo/avrora", Scale: 0.01, Seed: 2},
		{Machine: "5218", Scheduler: "nest:noreserve", Governor: "schedutil", Workload: "configure/mplayer", Scale: 0.01, Seed: 5},
		{Machine: "5218", Scheduler: "nest", Governor: "schedutil", Workload: "configure/mplayer", Scale: 0.01, Seed: 4, Faults: "off:c2@5ms+10ms,throttle:s0@4ms+15ms=1.8GHz,jitter:@3ms+20ms=1ms,spike:@6ms=12x1ms"},
		{Machine: "6130-2", Scheduler: "cfs", Governor: "schedutil", Workload: workload.OverloadMixName(1.5, "codel"), Scale: 0.25, Seed: 7},
		{Machine: "6130-4", Scheduler: "cfs", Governor: "schedutil", Workload: "dacapo/h2", Scale: 0.01, Seed: 1},
		{Machine: "5218", Scheduler: "nest:noattach", Governor: "schedutil", Workload: "nas/mg.C", Scale: 0.01, Seed: 1},
		{Machine: "6130-2", Scheduler: "nest", Governor: "schedutil", Workload: "phoronix/bg-003", Scale: 0.01, Seed: 1},
		{Machine: "5218", Scheduler: "nest", Governor: "schedutil", Workload: "micro/hackbench", Scale: 0.002, Seed: 1},
		{Machine: "5218", Scheduler: "cfs", Governor: "schedutil", Workload: "micro/schbench-m8-w16", Scale: 0.01, Seed: 1},
		{Machine: "5218", Scheduler: "nest", Governor: "schedutil", Workload: "micro/schbench-m8-w16", Scale: 0.01, Seed: 1},
		{Machine: "6130-2", Scheduler: "nest", Governor: "schedutil", Workload: "multi/zstd+libgav1", Scale: 0.01, Seed: 1},
		{Machine: "4650g", Scheduler: "cfs", Governor: "schedutil", Workload: "configure/llvm_ninja", Scale: 0.01, Seed: 1},
		{Machine: "4650g", Scheduler: "nest", Governor: "schedutil", Workload: "configure/llvm_ninja", Scale: 0.01, Seed: 1},
	}
}

// TestEngineDifferentialResults runs every differential cell on the
// timing-wheel engine and on the heap oracle and requires byte-identical
// canonical result encodings.
func TestEngineDifferentialResults(t *testing.T) {
	for _, rs := range differentialSpecs() {
		rs := rs
		t.Run(rs.String(), func(t *testing.T) {
			t.Parallel()
			wheel, err := Run(rs)
			if err != nil {
				t.Fatal(err)
			}
			hs := rs
			hs.heapEngine = true
			heap, err := Run(hs)
			if err != nil {
				t.Fatal(err)
			}
			wb, err := EncodeResult(wheel)
			if err != nil {
				t.Fatal(err)
			}
			hb, err := EncodeResult(heap)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wb, hb) {
				t.Fatalf("results diverge between engines:\nwheel: %s\nheap:  %s", wb, hb)
			}
		})
	}
}

// TestEngineDifferentialJSONLStreams attaches a JSONL recorder to both
// engines' runs of the same cells and requires the full observability
// event streams — every placement, migration, preemption, overload
// action, with timestamps — to be byte-for-byte identical. This is the
// strictest equivalence we can ask for: not just equal end-state
// metrics but an identical event-by-event execution.
func TestEngineDifferentialJSONLStreams(t *testing.T) {
	stream := func(t *testing.T, rs RunSpec) []byte {
		t.Helper()
		var buf bytes.Buffer
		rec := obs.NewJSONL(&buf)
		rs.Obs = obs.New(rec)
		if _, err := Run(rs); err != nil {
			t.Fatal(err)
		}
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, rs := range differentialSpecs() {
		rs := rs
		t.Run(rs.String(), func(t *testing.T) {
			t.Parallel()
			wb := stream(t, rs)
			hs := rs
			hs.heapEngine = true
			hb := stream(t, hs)
			if len(wb) == 0 {
				t.Fatal("empty JSONL stream; the comparison would be vacuous")
			}
			if !bytes.Equal(wb, hb) {
				// Find the first diverging line for a usable failure.
				wl := bytes.Split(wb, []byte("\n"))
				hl := bytes.Split(hb, []byte("\n"))
				for i := 0; i < len(wl) && i < len(hl); i++ {
					if !bytes.Equal(wl[i], hl[i]) {
						t.Fatalf("JSONL streams diverge at line %d:\nwheel: %s\nheap:  %s", i+1, wl[i], hl[i])
					}
				}
				t.Fatalf("JSONL streams diverge in length: wheel %d lines, heap %d", len(wl), len(hl))
			}
		})
	}
}

// TestEngineDifferentialJournalResume kills a grid halfway (journaled,
// wheel engine), resumes the remainder on the heap oracle, and requires
// the combined results to be byte-identical to an all-wheel serial run:
// the kill/resume path must not be able to tell the engines apart.
func TestEngineDifferentialJournalResume(t *testing.T) {
	specs := []RunSpec{
		{Machine: "5218", Scheduler: "nest", Governor: "schedutil", Workload: "configure/mplayer", Scale: 0.01, Seed: 11},
		{Machine: "5218", Scheduler: "cfs", Governor: "schedutil", Workload: "configure/mplayer", Scale: 0.01, Seed: 12},
		{Machine: "5218", Scheduler: "nest", Governor: "schedutil", Workload: "configure/llvm_ninja", Scale: 0.01, Seed: 13},
		{Machine: "5218", Scheduler: "cfs", Governor: "schedutil", Workload: "configure/llvm_ninja", Scale: 0.01, Seed: 14},
	}

	// Ground truth: all cells on the wheel engine, serial.
	want := make([][]byte, len(specs))
	for i, rs := range specs {
		res, err := Run(rs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}

	// Phase 1: journal the first half (wheel engine), then "crash".
	path := filepath.Join(t.TempDir(), "diff.journal")
	j, err := checkpoint.Create(path, "differential")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunGrid(specs[:2], PoolOptions{Workers: 2, Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Phase 2: resume; the remaining cells run on the heap oracle.
	j2, rep, err := checkpoint.Resume(path, "differential")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	resumed := make([]RunSpec, len(specs))
	copy(resumed, specs)
	for i := range resumed {
		resumed[i].heapEngine = true
	}
	results, err := RunGrid(resumed, PoolOptions{Workers: 2, Journal: j2, Done: rep.Done})
	if err != nil {
		t.Fatal(err)
	}

	for i, res := range results {
		b, err := EncodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, want[i]) {
			t.Fatalf("cell %d (%s) diverges after kill/resume across engines:\nwant: %s\ngot:  %s",
				i, specs[i].String(), want[i], b)
		}
	}
}
