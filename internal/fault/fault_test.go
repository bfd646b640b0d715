package fault

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

func mustParse(t *testing.T, s string) *Plan {
	t.Helper()
	p, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return p
}

func TestParseBasics(t *testing.T) {
	p := mustParse(t, "off:c3@2s+500ms,throttle:s0@1s=2.1GHz,on:c3@4s,jitter:@1s+2s=1ms,spike:@100ms=32x2ms")
	if len(p.Items) != 5 {
		t.Fatalf("got %d items", len(p.Items))
	}
	off := p.Items[0]
	if off.Kind != Offline || off.Core != 3 || off.At != 2*sim.Second || off.Dur != 500*sim.Millisecond {
		t.Fatalf("off item wrong: %+v", off)
	}
	th := p.Items[1]
	if th.Kind != Throttle || th.Socket != 0 || th.At != sim.Second || th.Dur != 0 || th.Cap != 2100 {
		t.Fatalf("throttle item wrong: %+v", th)
	}
	on := p.Items[2]
	if on.Kind != Online || on.Core != 3 || on.At != 4*sim.Second {
		t.Fatalf("on item wrong: %+v", on)
	}
	ji := p.Items[3]
	if ji.Kind != Jitter || ji.At != sim.Second || ji.Dur != 2*sim.Second || ji.Amp != sim.Millisecond {
		t.Fatalf("jitter item wrong: %+v", ji)
	}
	sp := p.Items[4]
	if sp.Kind != Spike || sp.At != 100*sim.Millisecond || sp.Count != 32 || sp.Work != 2*sim.Millisecond {
		t.Fatalf("spike item wrong: %+v", sp)
	}
}

func TestParseEmpty(t *testing.T) {
	for _, s := range []string{"", "   "} {
		p := mustParse(t, s)
		if !p.Empty() {
			t.Fatalf("Parse(%q) not empty: %+v", s, p)
		}
	}
	var nilPlan *Plan
	if !nilPlan.Empty() {
		t.Fatal("nil plan should be empty")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"off",                       // no colon
		"explode:c1@1s",             // unknown kind
		"off:3@1s",                  // missing c prefix
		"off:c1",                    // missing @time
		"off:c1@1parsec",            // bad unit
		"off:c1@1s+0ns",             // zero-length window
		"on:c1@1s+2s",               // on takes no window
		"throttle:c1@1s=2GHz",       // socket prefix is s
		"throttle:s0@1s",            // missing cap
		"throttle:s0@1s=2kHz",       // bad freq unit
		"throttle:s0@1s=0.2MHz",     // rounds to 0 MHz
		"jitter:1s=1ms",             // missing @
		"jitter:@1s",                // missing amplitude
		"spike:@1s=32",              // missing x<work>
		"spike:@1s=manyx2ms",        // bad count
		"off:c1@99999999999999999s", // duration overflow
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	cases := []string{
		"off:c3@2s+500ms",
		"on:c0@0ns",
		"throttle:s1@1500ms+250ms=2100MHz",
		"throttle:s0@1s=2GHz",
		"jitter:@40ms+200ms=1ms",
		"spike:@100ms=32x2ms",
		"off:c3@2s+500ms,throttle:s0@1s=2100MHz,spike:@3s=10x500us",
	}
	for _, s := range cases {
		p := mustParse(t, s)
		if got := p.String(); got != s {
			t.Errorf("Parse(%q).String() = %q", s, got)
		}
	}
	// Non-canonical spellings must still round-trip by value.
	p := mustParse(t, "off:c3@2000ms+0.5s, throttle:s0@1s=2.1GHz")
	p2 := mustParse(t, p.String())
	if len(p2.Items) != len(p.Items) {
		t.Fatalf("round trip changed item count")
	}
	for i := range p.Items {
		if p.Items[i] != p2.Items[i] {
			t.Errorf("item %d changed: %+v != %+v", i, p.Items[i], p2.Items[i])
		}
	}
}

func testSpec(sockets, phys, smt int) *machine.Spec {
	return &machine.Spec{Topo: machine.New("test", sockets, phys, smt), Min: 1000, Nominal: 2000}
}

func TestValidate(t *testing.T) {
	spec := testSpec(2, 2, 2) // 8 cores, 2 sockets
	ok := []string{
		"",
		"off:c7@1s+1s",
		"throttle:s1@1s=1000MHz",
		"jitter:@0ns+1s=4ms", // amp == tick
		"spike:@1s=10000x1ms",
		// c0 comes back before c1..c7 all drop.
		"off:c0@1s+500ms,off:c1@2s,off:c2@2s,off:c3@2s,off:c4@2s,off:c5@2s,off:c6@2s,off:c7@2s",
	}
	for _, s := range ok {
		if err := mustParse(t, s).Validate(spec); err != nil {
			t.Errorf("Validate(%q): %v", s, err)
		}
	}
	bad := map[string]string{
		"off:c8@1s":             "out of range",
		"on:c8@1s":              "out of range",
		"throttle:s2@1s=2GHz":   "out of range",
		"throttle:s0@1s=999MHz": "below machine minimum",
		"jitter:@1s=5ms":        "exceeds the tick period",
		"spike:@1s=10001x1ms":   "exceeds the 10000-task limit",
		"off:c0@1s,off:c1@1s,off:c2@1s,off:c3@1s,off:c4@1s,off:c5@1s,off:c6@1s,off:c7@1s": "every core offline",
	}
	for s, want := range bad {
		err := mustParse(t, s).Validate(spec)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Validate(%q) = %v, want error containing %q", s, err, want)
		}
	}
}

func TestValidateHotplugWindowOverlap(t *testing.T) {
	spec := testSpec(1, 1, 2) // 2 cores
	// Windows overlap between 1500ms and 2s: both cores offline.
	if err := mustParse(t, "off:c0@1s+1s,off:c1@1500ms+1s").Validate(spec); err == nil {
		t.Fatal("overlapping offline windows accepted")
	}
	// Sequential windows never overlap.
	if err := mustParse(t, "off:c0@1s+400ms,off:c1@1500ms+400ms").Validate(spec); err != nil {
		t.Fatal(err)
	}
}

// recInjector records applications with their times.
type recInjector struct {
	eng   *sim.Engine
	calls []string
}

func (r *recInjector) Engine() *sim.Engine { return r.eng }
func (r *recInjector) rec(format string, args ...any) {
	r.calls = append(r.calls, r.eng.Now().String()+" "+fmt.Sprintf(format, args...))
}
func (r *recInjector) OfflineCore(c machine.CoreID) { r.rec("off c%d", c) }
func (r *recInjector) OnlineCore(c machine.CoreID)  { r.rec("on c%d", c) }
func (r *recInjector) ThrottleSocket(s int, cap machine.FreqMHz) {
	r.rec("throttle s%d=%d", s, cap)
}
func (r *recInjector) SetTickJitter(amp sim.Duration)   { r.rec("jitter %d", amp) }
func (r *recInjector) InjectLoad(n int, w sim.Duration) { r.rec("spike %dx%d", n, w) }

// TestApplySchedulesForwardAndReverse also pins the Plan contract that
// same-instant items apply in list order (off:c1 then on:c1 at 5ms).
func TestApplySchedulesForwardAndReverse(t *testing.T) {
	inj := &recInjector{eng: sim.NewEngine()}
	mustParse(t, "off:c2@10ms+5ms,throttle:s0@1ms+2ms=1500MHz,jitter:@0ns+20ms=1ms,spike:@4ms=3x1ms,off:c1@5ms,on:c1@5ms").Apply(inj)
	inj.eng.Run(0)
	want := []string{
		"0.000000s jitter 1000000",
		"0.001000s throttle s0=1500",
		"0.003000s throttle s0=0",
		"0.004000s spike 3x1000000",
		"0.005000s off c1",
		"0.005000s on c1",
		"0.010000s off c2",
		"0.015000s on c2",
		"0.020000s jitter 0",
	}
	if len(inj.calls) != len(want) {
		t.Fatalf("calls = %q", inj.calls)
	}
	for i, w := range want {
		if inj.calls[i] != w {
			t.Errorf("call %d = %q, want %q", i, inj.calls[i], w)
		}
	}
}

func TestApplyEmptyPlanIsNoop(t *testing.T) {
	inj := &recInjector{eng: sim.NewEngine()}
	mustParse(t, "").Apply(inj)
	var nilPlan *Plan
	nilPlan.Apply(inj)
	if inj.eng.Pending() != 0 || len(inj.calls) != 0 {
		t.Fatal("empty plan scheduled events")
	}
}
