package core

import (
	"testing"
	"time"

	"csds/internal/ebr"
	"csds/internal/fault"
	"csds/internal/stats"
)

// fakeSet is a registry fixture.
type fakeSet struct{ n int }

func (f *fakeSet) Get(c *Ctx, k Key) (Value, bool) { return 0, false }
func (f *fakeSet) Put(c *Ctx, k Key, v Value) bool { f.n++; return true }
func (f *fakeSet) Remove(c *Ctx, k Key) bool       { return false }
func (f *fakeSet) Len() int                        { return f.n }

func TestRegisterLookup(t *testing.T) {
	Register(Info{
		Name: "test/fake", Kind: "testkind", Progress: "blocking",
		New: func(o Options) Set { return &fakeSet{} },
	})
	info, ok := Lookup("test/fake")
	if !ok || info.Kind != "testkind" {
		t.Fatalf("lookup failed: %+v ok=%v", info, ok)
	}
	if _, ok := Lookup("test/absent"); ok {
		t.Fatal("phantom lookup succeeded")
	}
	found := false
	for _, n := range Names() {
		if n == "test/fake" {
			found = true
		}
	}
	if !found {
		t.Fatal("Names() missing registered algorithm")
	}
	if len(ByKind("testkind")) != 1 {
		t.Fatal("ByKind failed")
	}
	if _, ok := Featured("testkind"); ok {
		t.Fatal("non-featured kind reported a featured algorithm")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register(Info{Name: "test/dup", New: func(o Options) Set { return &fakeSet{} }})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(Info{Name: "test/dup", New: func(o Options) Set { return &fakeSet{} }})
}

func TestRegisterInvalidPanics(t *testing.T) {
	for _, info := range []Info{{Name: "", New: func(o Options) Set { return nil }}, {Name: "x/y"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid Register(%+v) did not panic", info)
				}
			}()
			Register(info)
		}()
	}
}

func TestByKindSortedAndFiltered(t *testing.T) {
	mk := func(o Options) Set { return &fakeSet{} }
	Register(Info{Name: "test/bk-b", Kind: "bykind", New: mk})
	Register(Info{Name: "test/bk-a", Kind: "bykind", New: mk})
	Register(Info{Name: "test/bk-c", Kind: "otherkind", New: mk})
	got := ByKind("bykind")
	if len(got) != 2 || got[0].Name != "test/bk-a" || got[1].Name != "test/bk-b" {
		t.Fatalf("ByKind not filtered+sorted: %+v", got)
	}
	if len(ByKind("kindless")) != 0 {
		t.Fatal("ByKind of unknown kind not empty")
	}
}

func TestFeaturedAmongSeveral(t *testing.T) {
	mk := func(o Options) Set { return &fakeSet{} }
	Register(Info{Name: "test/fs-plain", Kind: "fskind", New: mk})
	Register(Info{Name: "test/fs-star", Kind: "fskind", Featured: true, New: mk})
	Register(Info{Name: "test/fs-other", Kind: "fskind", New: mk})
	info, ok := Featured("fskind")
	if !ok || info.Name != "test/fs-star" {
		t.Fatalf("Featured among several = %+v, %v", info, ok)
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() unsorted at %d: %v", i, names)
		}
	}
}

func TestFeaturedFindsFlag(t *testing.T) {
	Register(Info{Name: "test/feat", Kind: "featkind", Featured: true,
		New: func(o Options) Set { return &fakeSet{} }})
	info, ok := Featured("featkind")
	if !ok || info.Name != "test/feat" {
		t.Fatalf("Featured = %+v, %v", info, ok)
	}
}

func TestNilCtxSafety(t *testing.T) {
	var c *Ctx
	if c.Stat() != nil {
		t.Fatal("nil ctx Stat() not nil")
	}
	c.InCS() // must not panic
	if c.Injector() != nil {
		t.Fatal("nil ctx Injector() not nil")
	}
	c.RecordRestarts(3)       // must not panic
	c.EpochEnter()            // must not panic
	c.EpochExit()             // must not panic
	c.Retire("whatever", nil) // must not panic
}

func TestCtxHelpers(t *testing.T) {
	c := NewCtx(7)
	if c.ID != 7 || c.Rng == nil || c.Stats == nil || c.Fault != nil {
		t.Fatalf("NewCtx incomplete: %+v", c)
	}
	c.InCS() // no plan: must not fire or panic
	if c.Injector() != nil {
		t.Fatal("Injector() without a plan must be nil")
	}
	plan, err := fault.ParsePlan("cs.delay:every=1,min=100us")
	if err != nil {
		t.Fatal(err)
	}
	tally := fault.NewTally()
	c.Fault = fault.NewInjector(plan, 0, tally)
	if c.Injector() != c.Fault {
		t.Fatal("Injector() does not return the context's injector")
	}
	start := time.Now()
	c.InCS()
	if tally.Count(fault.CSDelay) != 1 {
		t.Fatalf("InCS fired cs.delay %d times, want 1", tally.Count(fault.CSDelay))
	}
	if el := time.Since(start); el < 100*time.Microsecond {
		t.Fatalf("InCS returned after %v; the drawn 100µs delay was not served", el)
	}
	c.RecordRestarts(2)
	if c.Stats.RestartedOps[2] != 1 {
		t.Fatal("RecordRestarts did not forward")
	}
}

// TestLockModeDelayServedInCS: under plain locks the Figure 9 victim's
// delay is served by InCS, inside the write phase, on the victim worker
// only and only on the scheduled write phase.
func TestLockModeDelayServedInCS(t *testing.T) {
	plan, err := fault.ParsePlan("cs.delay:every=2,min=100us,workers=1")
	if err != nil {
		t.Fatal(err)
	}
	tally := fault.NewTally()
	victim, other := NewCtx(0), NewCtx(1)
	victim.Fault = fault.NewInjector(plan, 0, tally)
	other.Fault = fault.NewInjector(plan, 1, tally)
	for i := 0; i < 4; i++ {
		other.InCS()
	}
	if n := tally.Count(fault.CSDelay); n != 0 {
		t.Fatalf("non-victim worker served %d delays", n)
	}
	victim.InCS() // first write phase: not scheduled
	if n := tally.Count(fault.CSDelay); n != 0 {
		t.Fatalf("victim delayed on write phase 1 of every=2 (%d fires)", n)
	}
	start := time.Now()
	victim.InCS()
	if el := time.Since(start); el < 100*time.Microsecond {
		t.Fatalf("InCS returned after %v; the victim's 100µs delay was not served", el)
	}
	if n := tally.Count(fault.CSDelay); n != 1 {
		t.Fatalf("victim served %d delays over two write phases, want 1", n)
	}
}

func TestCtxEpochIntegration(t *testing.T) {
	dom := ebr.NewDomain()
	c := NewCtx(0)
	c.Epoch = dom.Register()
	c.EpochEnter()
	if !c.Epoch.Active() {
		t.Fatal("EpochEnter did not activate record")
	}
	c.Retire("x", nil)
	c.EpochExit()
	if c.Epoch.Active() {
		t.Fatal("EpochExit left record active")
	}
	retired, _ := dom.Stats()
	if retired != 1 {
		t.Fatalf("retired = %d", retired)
	}
}

func TestOptionsRegion(t *testing.T) {
	if r := (Options{}).Region(); r.Attempts != 0 {
		t.Fatalf("default region attempts = %d", r.Attempts)
	}
	if r := (Options{ElideAttempts: 5}).Region(); r.Attempts != 5 {
		t.Fatalf("elide region attempts = %d", r.Attempts)
	}
}

func TestCtxStatsFlow(t *testing.T) {
	c := NewCtx(1)
	var th stats.Thread
	c.Stats = &th
	c.RecordRestarts(0)
	c.RecordRestarts(1)
	if th.RestartedOps[0] != 1 || th.RestartedOps[1] != 1 {
		t.Fatalf("stats flow broken: %+v", th.RestartedOps)
	}
}

func TestSentinelConstants(t *testing.T) {
	if KeyMin >= KeyMax {
		t.Fatal("sentinel ordering broken")
	}
	if KeyMin != -9223372036854775808 || KeyMax != 9223372036854775807 {
		t.Fatal("sentinels are not the int64 extremes")
	}
}
