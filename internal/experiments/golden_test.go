package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/workload"
)

// TestResultGolden pins sha256(EncodeResult) for small cells that between
// them reach every fixed model constant: the runtime's overheads, time
// slice, activity window, balance period, new-task utilisation and deep
// idle (configure cells), the SpeedStep spin credit (nest on the
// E7-8870), SMT contention (a NAS cell that fills both hardware threads),
// CFS's NUMA allowance, scan limit, fixed cost and sync-affine wakeups,
// Nest's fixed cost and its fallback toggles, Smove's thresholds and move
// delay, the task-exit observer chain (an overload cell) and the hotplug
// paths (a fault plan). A change that moves any digest changes the
// model; it must say why and re-record the digest.
func TestResultGolden(t *testing.T) {
	cases := []struct {
		rs  RunSpec
		sha string
	}{
		{RunSpec{Machine: "5218", Scheduler: "cfs", Governor: "schedutil", Workload: "configure/llvm_ninja", Scale: 0.05, Seed: 1},
			"9f8615e447a02299ccf4cd592a8bf94154074a4eae82795e07c58e28fef076dc"},
		{RunSpec{Machine: "5218", Scheduler: "nest", Governor: "schedutil", Workload: "configure/llvm_ninja", Scale: 0.05, Seed: 1},
			"aa81bc7a701e691fea1b772b6487888ea13f7824d8af15bab084808369716721"},
		{RunSpec{Machine: "5218", Scheduler: "smove", Governor: "schedutil", Workload: "configure/llvm_ninja", Scale: 0.05, Seed: 1},
			"b7bce2f72868f1dbed811e3ebbd770d2e29433361b967af52009439325995e2f"},
		{RunSpec{Machine: "5218", Scheduler: "cfs:claims", Governor: "schedutil", Workload: "configure/llvm_ninja", Scale: 0.05, Seed: 1},
			"9f8615e447a02299ccf4cd592a8bf94154074a4eae82795e07c58e28fef076dc"},
		{RunSpec{Machine: "5218", Scheduler: "nest:nowc,noclaim", Governor: "schedutil", Workload: "configure/llvm_ninja", Scale: 0.05, Seed: 1},
			"e8ee7a2bdda4b2e3b25d7a2d28cd962a466b59dcb51e94b9157a404e2682dc23"},
		{RunSpec{Machine: "e7-8870", Scheduler: "nest", Governor: "schedutil", Workload: "configure/llvm_ninja", Scale: 0.05, Seed: 1},
			"2c466e969f38e5bd20c2a64dfb9427651e280f654713aec26e3fcb3defa8d876"},
		{RunSpec{Machine: "e7-8870", Scheduler: "smove", Governor: "schedutil", Workload: "configure/llvm_ninja", Scale: 0.05, Seed: 1},
			"a492d12f622b09acc70d4314ea70c5534ad1167f4f668a3572f8b7af70830f80"},
		{RunSpec{Machine: "5218", Scheduler: "cfs", Governor: "schedutil", Workload: "micro/hackbench", Scale: 0.02, Seed: 1},
			"0edacd80ad120191bddf5ce551c2a3a4006518e19cb2370fdb98e385efba2bae"},
		{RunSpec{Machine: "5218", Scheduler: "cfs:claims", Governor: "schedutil", Workload: "micro/hackbench", Scale: 0.02, Seed: 1},
			"3a732ad47c3d23ed3ce7c2499acc9753f2ffc2eca5d652bc527cd94803f1b121"},
		{RunSpec{Machine: "5218", Scheduler: "cfs", Governor: "schedutil", Workload: "nas/lu.C", Scale: 0.01, Seed: 1},
			"cd0a1dad834f9c94dace6c4d8d9a355bab237a33e56b54ba8ff610934e23bfb1"},
		{RunSpec{Machine: "6130-2", Scheduler: "nest", Governor: "schedutil", Workload: workload.OverloadMixName(1.5, "codel"), Scale: 0.05, Seed: 1},
			"daafc5e6893abd5c208dc38eef01dc7561e5651cf602893f3dc65bda4108d6a1"},
		{RunSpec{Machine: "5218", Scheduler: "nest", Governor: "schedutil", Workload: "configure/llvm_ninja", Scale: 0.05, Seed: 1,
			Faults: "off:c2@5ms+10ms,on:c2@5ms,throttle:s0@4ms+15ms=1.8GHz"},
			"b3a35ccf49828c5fb7afb30819587e861ec1e674627536667c210dc3fb9c2b3d"},
	}
	for _, c := range cases {
		t.Run(c.rs.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(c.rs)
			if err != nil {
				t.Fatal(err)
			}
			b, err := EncodeResult(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != c.sha {
				t.Errorf("sha256 = %s, want %s (%d bytes)", got, c.sha, len(b))
			}
		})
	}
}
