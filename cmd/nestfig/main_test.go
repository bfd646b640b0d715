package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestRenderGolden pins the bytes of one small figure per simulated
// kind. The digests are the byte-identity gate for anything that feeds
// these figures (the trace recorder, the gauge sampler, svgplot): a
// change that moves a figure must say why and re-record the digest.
func TestRenderGolden(t *testing.T) {
	cases := []struct {
		name string
		fig  figure
		sha  string
	}{
		{"trace", figure{kind: "trace", workload: "configure/llvm_ninja", machine: "5218", sched: "cfs", gov: "schedutil", scale: 0.1, windowMS: 300, seed: 1},
			"9fa128527de688fb7b35f8c13c6c2aa08ca1d2df25f1f1da25dc62d988bbb685"},
		{"underload", figure{kind: "underload", workload: "configure/llvm_ninja", machine: "5218", sched: "cfs", gov: "schedutil", scale: 0.1, windowMS: 300, seed: 1},
			"32e2ab6711df48745096aece45f824315d35c19a8d563ba47840c40f2af9b930"},
		{"timeseries", figure{kind: "timeseries", workload: "dacapo/h2", machine: "6130-4", sched: "nest", gov: "schedutil", scale: 0.1, seed: 1},
			"d959f1f90570049aee992a4ab30dfca3601025fbbadfcb7be9d770e117ba590b"},
		{"timeseries-cfs", figure{kind: "timeseries", workload: "configure/llvm_ninja", machine: "5218", sched: "cfs", gov: "schedutil", scale: 0.1, seed: 1},
			"3a2562a47796a5934300ce8b07671f26acd4489b29784f256617dc94c26312f8"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := render(&buf, c.fig); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.sha {
				t.Errorf("sha256 = %s, want %s (%d bytes)", got, c.sha, buf.Len())
			}
		})
	}
}

// TestRenderRejectsBadInput checks that bad flags fail before anything
// is written, so main never replaces an existing figure with a partial
// one.
func TestRenderRejectsBadInput(t *testing.T) {
	for _, fig := range []figure{
		{kind: "trace", workload: "configure/llvm_ninja", machine: "bogus", sched: "cfs", gov: "schedutil", scale: 0.1},
		{kind: "nope", workload: "configure/llvm_ninja", machine: "5218", sched: "cfs", gov: "schedutil", scale: 0.1},
		{kind: "speedup", suite: "nope", machine: "5218", scale: 0.1},
	} {
		var buf bytes.Buffer
		if err := render(&buf, fig); err == nil {
			t.Errorf("%+v: no error", fig)
		}
		if buf.Len() != 0 {
			t.Errorf("%+v: wrote %d bytes before failing", fig, buf.Len())
		}
	}
}
