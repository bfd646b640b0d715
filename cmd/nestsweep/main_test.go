package main

import (
	"io"
	"reflect"
	"testing"
)

// TestParseArgs: every bad flag is a usage error before any run starts;
// good command lines map each value to its Nest variant, 0 to the
// toggle that disables the feature.
func TestParseArgs(t *testing.T) {
	cases := []struct {
		args   []string
		ok     bool
		scheds []string
	}{
		{nil, true, []string{"nest:nospin", "nest:smax=1", "nest:smax=2", "nest:smax=4", "nest:smax=20"}},
		{[]string{"-param", "rimpatient", "-values", " 0, 3 "}, true, []string{"nest:noimpatience", "nest:rimpatient=3"}},
		{[]string{"-param", "premove", "-values", "0"}, true, []string{"nest:nocompact"}},
		{[]string{"-param", "rmax", "-values", "5", "-scale", "0"}, true, []string{"nest:rmax=5"}},
		{[]string{"-runs", "0"}, false, nil},
		{[]string{"-runs", "-1"}, false, nil},
		{[]string{"-values", ""}, false, nil},
		{[]string{"-values", "x"}, false, nil},
		{[]string{"-values", "-2"}, false, nil},
		{[]string{"-values", "1,,2"}, false, nil},
		{[]string{"-param", "bogus"}, false, nil},
		{[]string{"-scale", "-1"}, false, nil},
		{[]string{"-machine", "bogus"}, false, nil},
		{[]string{"-workload", "bogus"}, false, nil},
		{[]string{"-gov", "bogus"}, false, nil},
		{[]string{"-bogus"}, false, nil},
		{[]string{"-runs", "x"}, false, nil},
	}
	for _, c := range cases {
		sw, err := parseArgs(c.args, io.Discard)
		if (err == nil) != c.ok {
			t.Errorf("%q: err = %v, want ok=%v", c.args, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if !reflect.DeepEqual(sw.scheds, c.scheds) {
			t.Errorf("%q: schedulers %q, want %q", c.args, sw.scheds, c.scheds)
		}
	}
}
