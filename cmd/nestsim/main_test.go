package main

import (
	"flag"
	"io"
	"testing"
)

// TestRunFileName pins the per-run chrome-trace naming: run 1 keeps the
// flag value verbatim, later runs insert ".runN" before the extension.
func TestRunFileName(t *testing.T) {
	cases := []struct {
		path string
		run  int
		want string
	}{
		{"trace.json", 1, "trace.json"},
		{"trace.json", 2, "trace.run2.json"},
		{"trace.json", 10, "trace.run10.json"},
		{"out/trace.json", 3, "out/trace.run3.json"},
		{"trace", 2, "trace.run2"},
		{"a.b.json", 2, "a.b.run2.json"},
	}
	for _, c := range cases {
		if got := runFileName(c.path, c.run); got != c.want {
			t.Errorf("runFileName(%q, %d) = %q, want %q", c.path, c.run, got, c.want)
		}
	}
}

// TestCheckFlagParents: a qualifying flag given without its parent is a
// usage error, even when it repeats its default; defaults alone are not.
func TestCheckFlagParents(t *testing.T) {
	cases := []struct {
		args []string
		ok   bool
	}{
		{nil, true},
		{[]string{"-admission", "codel"}, false},
		{[]string{"-admission", "none"}, false},
		{[]string{"-admission", "codel", "-arrival-trace", "t.jsonl"}, true},
		{[]string{"-fanout-load", "3"}, false},
		{[]string{"-fanout-load", "0.9"}, false},
		{[]string{"-fanout-load", "3", "-fanout", "fanout:width=4"}, true},
		{[]string{"-hedge", "hedge:none"}, false},
		{[]string{"-hedge", "hedge:none", "-fanout", "fanout:width=4"}, true},
		{[]string{"-arrival-trace", "t.jsonl", "-fanout", "fanout:width=4"}, true},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("nestsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.String("arrival-trace", "", "")
		fs.String("admission", "none", "")
		fs.String("fanout", "", "")
		fs.String("hedge", "", "")
		fs.Float64("fanout-load", 0.9, "")
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		if err := checkFlagParents(fs); (err == nil) != c.ok {
			t.Errorf("%q: err = %v, want ok=%v", c.args, err, c.ok)
		}
	}
}
