package fault

import (
	"strings"
	"testing"
	"time"
)

func TestNumPointsPinned(t *testing.T) {
	if len(Points) != numPoints || numPoints != 12 {
		t.Fatalf("numPoints const is %d but Points has %d entries (want 12)", numPoints, len(Points))
	}
}

// TestPointNamesRoundTrip: every point's value is its canonical index and
// its name parses back to it; no two points share a name, and a value
// outside the set never aliases a real point.
func TestPointNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for i, pt := range Points {
		if int(pt) != i {
			t.Fatalf("Points[%d] = %d: values must equal canonical order", i, pt)
		}
		name := pt.String()
		if seen[name] {
			t.Fatalf("duplicate point name %q", name)
		}
		seen[name] = true
		if back, ok := pointNamed(name); !ok || back != pt {
			t.Fatalf("%q parses to %v, %v; want %v", name, back, ok, pt)
		}
		if p, err := ParsePlan(name + ":every=3"); err != nil || !p.Enabled(pt) {
			t.Fatalf("ParsePlan(%s:every=3) = %v, %v", name, p, err)
		}
	}
	if got := Point(numPoints).String(); seen[got] {
		t.Fatalf("out-of-range point renders as the real point %q", got)
	}
	if HTMAbort != Point(numPoints-1) {
		t.Fatal("htm.abort must stay last: appending keeps every earlier point's stream seed")
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	specs := []string{
		"seed=42;op.delay:p=0.02,min=1µs,max=50µs",
		"seed=7;conn.drop:every=500;handler.panic:every=9",
		"seed=1;guard.fail:p=0.25;ebr.stall:every=7,min=50µs,max=500µs",
		"seed=3;cs.delay:every=5,min=1µs,max=100µs,workers=1;htm.abort:p=0.001,workers=4",
		PaperVictim,
		Multiprogram,
	}
	for _, spec := range specs {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		again, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(String()=%q): %v", p.String(), err)
		}
		if p.String() != again.String() {
			t.Fatalf("round trip drifted: %q -> %q", p.String(), again.String())
		}
	}
	// The standard battery plan must round-trip through its own rendering.
	cp := ChaosPlan(3)
	back, err := ParsePlan(cp.String())
	if err != nil {
		t.Fatalf("ParsePlan(ChaosPlan.String()=%q): %v", cp.String(), err)
	}
	if back.String() != cp.String() {
		t.Fatalf("chaos plan drifted: %q -> %q", cp.String(), back.String())
	}
}

func TestParsePlanShorthands(t *testing.T) {
	for _, spec := range []string{"", "off", "  off  "} {
		p, err := ParsePlan(spec)
		if err != nil || p != nil {
			t.Fatalf("ParsePlan(%q) = %v, %v; want nil, nil", spec, p, err)
		}
	}
	p, err := ParsePlan("chaos:seed=9")
	if err != nil || p == nil || p.Seed != 9 {
		t.Fatalf("ParsePlan(chaos:seed=9) = %v, %v", p, err)
	}
	if p.String() != ChaosPlan(9).String() {
		t.Fatalf("chaos shorthand != ChaosPlan(9)")
	}
}

func TestParsePlanRejects(t *testing.T) {
	bad := []string{
		"seed=1",                          // no points scheduled
		"seed=1;bogus.point:p=0.5",        // unknown point
		"seed=1;op.delay:p=1.5",           // probability out of range
		"seed=1;op.delay:p=0.5,every=3",   // both triggers
		"seed=1;op.delay:min=5us,max=1us", // inverted range
		"seed=1;op.delay:frequency=3",     // unknown key
		"seed=x;op.delay:p=0.5",           // bad seed
		"op.delay",                        // no rule at all
		"seed=1;op.delay:p=0",             // a zero rate schedules nothing
		"seed=1;cs.delay:every=5,workers=-1",
		"seed=1;cs.delay:every=5,workers=x",
	}
	for _, spec := range bad {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted; want error", spec)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	plan, err := ParsePlan("seed=11;op.delay:p=0.1,min=0s,max=0s;conn.drop:every=37;guard.fail:p=0.3")
	if err != nil {
		t.Fatal(err)
	}
	run := func() map[Point]uint64 {
		tally := NewTally()
		for w := uint64(0); w < 4; w++ {
			in := NewInjector(plan, w, tally)
			for i := 0; i < 5000; i++ {
				in.Fire(OpDelay)
				in.Fire(ConnDrop)
				in.Fire(GuardFail)
			}
		}
		return tally.Snapshot()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no faults fired at all")
	}
	for pt, n := range a {
		if b[pt] != n {
			t.Fatalf("point %s: run1 fired %d, run2 fired %d", pt, n, b[pt])
		}
	}
	if a[ConnDrop] != 4*(5000/37) {
		t.Fatalf("every=37 over 4x5000 draws fired %d, want %d", a[ConnDrop], 4*(5000/37))
	}
}

func TestInjectorStreamsIndependent(t *testing.T) {
	// Arming an extra point must not shift another point's stream.
	base, _ := ParsePlan("seed=5;op.delay:p=0.1")
	more, _ := ParsePlan("seed=5;op.delay:p=0.1;conn.drop:p=0.5")
	ta, tb := NewTally(), NewTally()
	ia, ib := NewInjector(base, 0, ta), NewInjector(more, 0, tb)
	for i := 0; i < 3000; i++ {
		ia.Fire(OpDelay)
		ib.Fire(OpDelay)
		ib.Fire(ConnDrop)
	}
	if ta.Count(OpDelay) != tb.Count(OpDelay) {
		t.Fatalf("op.delay stream shifted: %d vs %d", ta.Count(OpDelay), tb.Count(OpDelay))
	}
}

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	for _, pt := range Points {
		if in.Fire(pt) {
			t.Fatalf("nil injector fired %s", pt)
		}
		if in.Duration(pt) != 0 {
			t.Fatalf("nil injector drew a duration for %s", pt)
		}
		if in.Delay(pt) {
			t.Fatalf("nil injector delayed at %s", pt)
		}
	}
	var p *Plan
	if p.Enabled(OpDelay) || p.String() != "off" || len(p.Active()) != 0 {
		t.Fatal("nil plan misbehaved")
	}
	var tl *Tally
	if tl.Total() != 0 || tl.Count(OpDelay) != 0 {
		t.Fatal("nil tally misbehaved")
	}
}

func TestDurationBounds(t *testing.T) {
	plan, _ := ParsePlan("seed=2;op.delay:p=1,min=3us,max=9us;cs.delay:p=1,min=4us")
	in := NewInjector(plan, 1, nil)
	for i := 0; i < 200; i++ {
		d := in.Duration(OpDelay)
		if d < 3*time.Microsecond || d > 9*time.Microsecond {
			t.Fatalf("duration %v outside [3us,9us]", d)
		}
		// min alone is a degenerate range: exactly min, every draw.
		if d := in.Duration(CSDelay); d != 4*time.Microsecond {
			t.Fatalf("degenerate range drew %v, want 4us", d)
		}
	}
}

// TestDegenerateSpanUsesMin: min == max (or max omitted) draws exactly min
// on every draw, without consuming the stream's range.
func TestDegenerateSpanUsesMin(t *testing.T) {
	for _, spec := range []string{"cs.delay:every=1,min=1us,max=1us", "cs.delay:every=1,min=1us"} {
		plan, err := ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		in := NewInjector(plan, 0, nil)
		for i := 0; i < 10; i++ {
			if d := in.Duration(CSDelay); d != time.Microsecond {
				t.Fatalf("%s: drew %v, want 1µs", spec, d)
			}
		}
	}
}

// TestCSDelayFiresEveryN: an every=N rule fires exactly once per N draws,
// at the N-th, and serves its delay only then.
func TestCSDelayFiresEveryN(t *testing.T) {
	plan, err := ParsePlan("cs.delay:every=10,min=1us,max=1us")
	if err != nil {
		t.Fatal(err)
	}
	tally := NewTally()
	in := NewInjector(plan, 0, tally)
	for i := 1; i <= 100; i++ {
		if got, want := in.Delay(CSDelay), i%10 == 0; got != want {
			t.Fatalf("draw %d: fired=%v, want %v", i, got, want)
		}
	}
	if n := tally.Count(CSDelay); n != 10 {
		t.Fatalf("fired %d delays for 100 draws, want 10", n)
	}
}

// TestNoPlanNoEffects: with no plan ("" or "off") every worker's injector
// is nil, and drawing every point on it fires, counts and delays nothing.
func TestNoPlanNoEffects(t *testing.T) {
	for _, spec := range []string{"", "off"} {
		plan, err := ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		tally := NewTally()
		for w := uint64(0); w < 4; w++ {
			in := NewInjector(plan, w, tally)
			if in != nil {
				t.Fatalf("%q: worker %d got a non-nil injector", spec, w)
			}
			for i := 0; i < 100; i++ {
				for _, pt := range Points {
					in.Delay(pt)
				}
			}
		}
		if tally.Total() != 0 {
			t.Fatalf("%q: injectors fired with no plan: %s", spec, tally)
		}
	}
}

// TestZeroRateNeverArms: a zero-rate rule schedules nothing, so neither
// the grammar nor code can arm one — a rate-0 adversary is simply absent.
func TestZeroRateNeverArms(t *testing.T) {
	for _, spec := range []string{"htm.abort:p=0", "cs.delay:every=0", "cs.delay:p=0,min=50us,max=500us"} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted a zero-rate rule", spec)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Plan.Set accepted a zero-rate rule")
		}
	}()
	NewPlan(1).Set(HTMAbort, Rule{Min: 50 * time.Microsecond, Max: 500 * time.Microsecond})
}

func TestProbabilityRate(t *testing.T) {
	plan, _ := ParsePlan("seed=4;cs.delay:p=0.25")
	in := NewInjector(plan, 0, nil)
	const n = 40000
	fired := 0
	for i := 0; i < n; i++ {
		if in.Fire(CSDelay) {
			fired++
		}
	}
	if got := float64(fired) / n; got < 0.22 || got > 0.28 {
		t.Fatalf("p=0.25 fired at rate %f", got)
	}
}

// TestWorkersGate: a workers=N rule is armed on workers 0..N-1 only —
// Figure 9's single victim is workers=1 — and other points stay armed
// on every worker.
func TestWorkersGate(t *testing.T) {
	plan, err := ParsePlan("cs.delay:every=1,workers=3;op.delay:every=1")
	if err != nil {
		t.Fatal(err)
	}
	for w := uint64(0); w < 5; w++ {
		in := NewInjector(plan, w, nil)
		if got, want := in.Fire(CSDelay), w < 3; got != want {
			t.Fatalf("worker %d: cs.delay fired=%v, want %v", w, got, want)
		}
		if !in.Fire(OpDelay) {
			t.Fatalf("worker %d: ungated op.delay did not fire", w)
		}
	}
}

// TestPaperPlans pins the paper's adversaries as plans (§5.4): Figure 9's
// victim is worker 0 alone, delayed 1–100µs on every 5th write phase
// (≈ every 10th update on a half-full structure); Tables 2–3 switch any
// worker out for 50–500µs, at commit under elision and inside the write
// phase under locks.
func TestPaperPlans(t *testing.T) {
	victim, err := ParsePlan(PaperVictim)
	if err != nil {
		t.Fatal(err)
	}
	want := Rule{Every: 5, Min: time.Microsecond, Max: 100 * time.Microsecond, Workers: 1}
	if r, _ := victim.Rule(CSDelay); r != want || len(victim.Active()) != 1 {
		t.Fatalf("PaperVictim = %s, want only cs.delay %+v", victim, want)
	}
	mp, err := ParsePlan(Multiprogram)
	if err != nil {
		t.Fatal(err)
	}
	want = Rule{Prob: 0.001, Min: 50 * time.Microsecond, Max: 500 * time.Microsecond}
	for _, pt := range []Point{HTMAbort, CSDelay} {
		if r, _ := mp.Rule(pt); r != want {
			t.Fatalf("Multiprogram %s = %+v, want %+v", pt, r, want)
		}
	}
	if len(mp.Active()) != 2 {
		t.Fatalf("Multiprogram schedules %v, want htm.abort and cs.delay", mp.Active())
	}
}

func TestSpinWaitsApproximately(t *testing.T) {
	start := time.Now()
	Spin(200 * time.Microsecond)
	if el := time.Since(start); el < 200*time.Microsecond {
		t.Fatalf("Spin returned early: %v", el)
	}
}

func TestTallyString(t *testing.T) {
	tl := NewTally()
	if tl.String() != "none" {
		t.Fatalf("empty tally = %q", tl.String())
	}
	plan, _ := ParsePlan("seed=1;shed.busy:every=1")
	in := NewInjector(plan, 0, tl)
	in.Fire(ShedBusy)
	in.Fire(ShedBusy)
	if !strings.Contains(tl.String(), "shed.busy=2") {
		t.Fatalf("tally = %q, want shed.busy=2", tl.String())
	}
}
