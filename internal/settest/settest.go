// Package settest is a reusable conformance and stress suite for core.Set
// implementations. Every algorithm package runs the same batteries:
//
//   - Run, the set battery: sequential semantics against a model map
//     (directed and randomized, including a testing/quick property run);
//     set-theoretic concurrent invariants — for every key, the number of
//     successful inserts minus successful removes equals its final
//     presence (each successful Put is an absent→present transition and
//     each successful Remove a present→absent transition, so the algebra
//     holds for any linearizable set regardless of interleaving); and
//     disjoint-key concurrency (each worker owns a key range; its slice
//     of the structure must match its private model exactly);
//   - RunScanner, RunCursor, RunCursorPageCost and RunBatcher for the
//     core.Scanner, core.Cursor and core.Batcher extensions;
//   - RunPoison (EBR reclamation), RunRetire (retirement reaches the
//     whole set and nests inside a caller's bracket) and RunChaos
//     (seeded fault injection).
//
// Each battery probes the set its factory builds and adds the legs the
// set's capabilities admit, so no caller has to remember them:
//
//   - core.Resizable: the battery's concurrent bodies run again while one
//     shared resize driver grows and shrinks the partition underneath;
//   - speculation (lock elision): the concurrent bodies run again, in an
//     "Elided" subtest, with Options.ElideAttempts set.
package settest

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"csds/internal/core"
	"csds/internal/ebr"
	"csds/internal/xrand"
)

// Factory builds a fresh empty set with the given options.
type Factory func(core.Options) core.Set

// Run executes the set battery against the factory.
func Run(t *testing.T, f Factory) {
	t.Helper()
	t.Run("EmptyBehaviour", func(t *testing.T) { testEmpty(t, f) })
	t.Run("BasicSemantics", func(t *testing.T) { testBasic(t, f) })
	t.Run("OrderedFill", func(t *testing.T) { testOrderedFill(t, f) })
	t.Run("SequentialModel", func(t *testing.T) { testSequentialModel(t, f) })
	t.Run("QuickProperty", func(t *testing.T) { testQuickProperty(t, f) })
	runLegs(t, f, []leg{
		{"ConcurrentSharedKeys", "SharedKeysUnderResize", core.Options{ExpectedSize: 64}, runConcurrentShared},
		{"ConcurrentDisjointKeys", "", core.Options{ExpectedSize: 1024}, runConcurrentDisjoint},
		{"ConcurrentReadersDuringUpdates", "ReadersDuringResize", core.Options{ExpectedSize: 128}, runReadersDuringUpdates},
	})
}

// RunElided re-runs part of the set battery with HTM elision enabled.
// Run's Elided leg covers the concurrent bodies on every speculating set;
// this entry point serves the per-structure ...Elided tests, which also
// check the sequential bodies under elision.
func RunElided(t *testing.T, f Factory) {
	t.Helper()
	wrap := elide(f)
	t.Run("ElidedBasic", func(t *testing.T) { testBasic(t, wrap) })
	t.Run("ElidedSequentialModel", func(t *testing.T) { testSequentialModel(t, wrap) })
	t.Run("ElidedConcurrentShared", func(t *testing.T) { runConcurrentShared(t, wrap(core.Options{ExpectedSize: 64})) })
	t.Run("ElidedConcurrentDisjoint", func(t *testing.T) { runConcurrentDisjoint(t, wrap(core.Options{ExpectedSize: 1024})) })
}

// A leg is one concurrent body of a battery, run on a set built with
// opts. underResize names the body's run under the resize driver; a
// body without one ("") is not re-run there.
type leg struct {
	name, underResize string
	opts              core.Options
	run               func(t *testing.T, s core.Set)
}

// runLegs runs a battery's concurrent bodies once each, then the legs the
// built set admits: under the resize driver for core.Resizable sets, and
// in an "Elided" subtest for sets that speculate. The linearizability
// checks are the same in every leg: they must hold however often the
// partition is reshaped underneath and whichever path, speculative or
// locked, an update takes.
func runLegs(t *testing.T, f Factory, legs []leg) {
	t.Helper()
	for _, l := range legs {
		t.Run(l.name, func(t *testing.T) { l.run(t, f(l.opts)) })
	}
	if resizes(f) {
		for _, l := range legs {
			if l.underResize == "" {
				continue
			}
			t.Run(l.underResize, func(t *testing.T) {
				s := f(l.opts)
				underResize(t, s, nil, func() { l.run(t, s) })
			})
		}
	}
	if ef := elided(f); ef != nil {
		t.Run("Elided", func(t *testing.T) {
			for _, l := range legs {
				t.Run(l.name, func(t *testing.T) { l.run(t, ef(l.opts)) })
			}
		})
	}
}

// A driver runs body, a battery's workload on s, whose reclamation domain
// (if any) is dom: direct runs it as is, underResize resizes s throughout.
type driver func(t *testing.T, s core.Set, dom *ebr.Domain, body func())

func direct(_ *testing.T, _ core.Set, _ *ebr.Domain, body func()) { body() }

// resizes reports whether f builds core.Resizable sets.
func resizes(f Factory) bool {
	_, ok := f(core.Options{}).(core.Resizable)
	return ok
}

// underResize runs body while a dedicated goroutine resizes s — which
// must be core.Resizable — the whole time, cycling the width up and down
// so both grow and shrink migrations race the body. With a non-nil dom
// the resizer retires superseded shard maps through its own epoch
// record, exactly like the harness's elastic controller.
func underResize(t *testing.T, s core.Set, dom *ebr.Domain, body func()) {
	t.Helper()
	rz, ok := s.(core.Resizable)
	if !ok {
		t.Fatalf("settest: factory built %T, which is not core.Resizable", s)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		var err error
		defer func() { done <- err }() // after Unregister: the drain follows
		c := core.NewCtx(999)
		if dom != nil {
			c.Epoch = dom.Register()
			defer c.Epoch.Unregister()
		}
		// At least one resize per leg, however short the body.
		widths := []int{2, 8, 1, 4, 16, 3}
		for i := 0; ; i++ {
			if err = rz.Resize(c, widths[i%len(widths)]); err != nil {
				return
			}
			runtime.Gosched()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	func() {
		defer close(stop) // a body that fails the test stops the resizer too
		body()
	}()
	if err := <-done; err != nil {
		t.Fatalf("settest: Resize failed during the battery: %v", err)
	}
	if w := rz.Width(); w < 1 {
		t.Fatalf("final Width = %d", w)
	}
}

// elideAttempts is the speculative budget of the Elided legs.
const elideAttempts = 5

// elide returns f with lock elision requested.
func elide(f Factory) Factory {
	return func(o core.Options) core.Set {
		o.ElideAttempts = elideAttempts
		return f(o)
	}
}

// elided returns elide(f) when requesting elision changes what f builds —
// the elided set speculates and f's own does not — and nil otherwise. The
// probe builds a set and does one Put and one Remove with a fresh stats
// slot: a set speculates iff it attempted a transaction.
func elided(f Factory) Factory {
	ef := elide(f)
	if speculates(f) || !speculates(ef) {
		return nil
	}
	return ef
}

func speculates(f Factory) bool {
	s := f(core.Options{})
	c := ctx()
	s.Put(c, 1, 1)
	s.Remove(c, 1)
	return c.Stats.TxAttempts > 0
}

func ctx() *core.Ctx { return core.NewCtx(0) }

// scale shrinks stress iteration counts under -short (the CI-sized
// battery): the interleaving coverage stays, the spin-heavy volume —
// which inflates badly on few-core hosts, where ticket-lock waiters and
// whole-map-copy updaters timeshare cores — drops fourfold. On a
// single-CPU host the volume halves again: with every worker timesharing
// one core, each spin-heavy iteration costs wall time instead of running
// in parallel, and the batteries' correctness arguments are about
// interleavings, not iteration totals — relying on generous timeouts
// there is exactly the timing dependence these suites must not have.
func scale(n int) int {
	if testing.Short() {
		n /= 4
	}
	if runtime.NumCPU() == 1 {
		n /= 2
	}
	if n < 1 {
		n = 1
	}
	return n
}

// wallBudget bounds the updaters of the anchor-visibility bodies: an
// iteration budget or this wall budget, whichever ends first. On a
// structure whose updates convoy (a copy-on-write structure's ticket lock
// with 7 spinning goroutines on 2 CPUs) the fixed count alone took
// 16-68 s for interleavings 2 s already covers. The updaters read the
// clock before every update: in such a convoy 64 updates can take a
// second.
const wallBudget = 2 * time.Second

func testEmpty(t *testing.T, f Factory) {
	s := f(core.Options{})
	c := ctx()
	if _, ok := s.Get(c, 1); ok {
		t.Fatal("Get on empty set found a key")
	}
	if s.Remove(c, 1) {
		t.Fatal("Remove on empty set succeeded")
	}
	if s.Len() != 0 {
		t.Fatalf("empty Len = %d", s.Len())
	}
}

func testBasic(t *testing.T, f Factory) {
	s := f(core.Options{})
	c := ctx()
	if !s.Put(c, 10, 100) {
		t.Fatal("first Put failed")
	}
	if s.Put(c, 10, 999) {
		t.Fatal("duplicate Put succeeded")
	}
	if v, ok := s.Get(c, 10); !ok || v != 100 {
		t.Fatalf("Get(10) = (%d, %v), want (100, true) — duplicate Put must not overwrite", v, ok)
	}
	if _, ok := s.Get(c, 11); ok {
		t.Fatal("Get of absent key succeeded")
	}
	if !s.Remove(c, 10) {
		t.Fatal("Remove of present key failed")
	}
	if s.Remove(c, 10) {
		t.Fatal("second Remove succeeded")
	}
	if _, ok := s.Get(c, 10); ok {
		t.Fatal("Get after Remove succeeded")
	}
	// Reinsertion after removal.
	if !s.Put(c, 10, 7) {
		t.Fatal("reinsert failed")
	}
	if v, _ := s.Get(c, 10); v != 7 {
		t.Fatalf("reinsert value = %d", v)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func testOrderedFill(t *testing.T, f Factory) {
	s := f(core.Options{ExpectedSize: 512})
	c := ctx()
	// Ascending, descending and interleaved inserts stress the search
	// logic around both sentinels.
	for k := core.Key(0); k < 100; k++ {
		if !s.Put(c, k, k*2) {
			t.Fatalf("ascending Put(%d) failed", k)
		}
	}
	for k := core.Key(299); k >= 200; k-- {
		if !s.Put(c, k, k*2) {
			t.Fatalf("descending Put(%d) failed", k)
		}
	}
	for k := core.Key(0); k < 100; k++ {
		if v, ok := s.Get(c, k); !ok || v != k*2 {
			t.Fatalf("Get(%d) = (%d, %v)", k, v, ok)
		}
		if _, ok := s.Get(c, k+100); ok {
			t.Fatalf("Get(%d) found phantom", k+100)
		}
	}
	if s.Len() != 200 {
		t.Fatalf("Len = %d, want 200", s.Len())
	}
	// Remove evens.
	for k := core.Key(0); k < 100; k += 2 {
		if !s.Remove(c, k) {
			t.Fatalf("Remove(%d) failed", k)
		}
	}
	for k := core.Key(0); k < 100; k++ {
		_, ok := s.Get(c, k)
		if want := k%2 == 1; ok != want {
			t.Fatalf("after removal Get(%d) = %v, want %v", k, ok, want)
		}
	}
	if s.Len() != 150 {
		t.Fatalf("Len = %d, want 150", s.Len())
	}
}

func testSequentialModel(t *testing.T, f Factory) {
	s := f(core.Options{ExpectedSize: 128})
	c := ctx()
	rng := xrand.New(20240611)
	model := map[core.Key]core.Value{}
	for i := 0; i < scale(20000); i++ {
		k := core.Key(rng.Int63n(200))
		switch rng.Uint64n(3) {
		case 0:
			want := false
			if _, in := model[k]; !in {
				model[k] = core.Value(i)
				want = true
			}
			if got := s.Put(c, k, core.Value(i)); got != want {
				t.Fatalf("step %d: Put(%d) = %v, want %v", i, k, got, want)
			}
		case 1:
			_, want := model[k]
			delete(model, k)
			if got := s.Remove(c, k); got != want {
				t.Fatalf("step %d: Remove(%d) = %v, want %v", i, k, got, want)
			}
		default:
			wv, want := model[k]
			gv, got := s.Get(c, k)
			if got != want || (got && gv != wv) {
				t.Fatalf("step %d: Get(%d) = (%d, %v), want (%d, %v)", i, k, gv, got, wv, want)
			}
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("final Len = %d, model %d", s.Len(), len(model))
	}
}

func testQuickProperty(t *testing.T, f Factory) {
	// Property: any op sequence leaves the set equal to the model.
	prop := func(ops []uint16) bool {
		s := f(core.Options{})
		c := ctx()
		model := map[core.Key]core.Value{}
		for i, raw := range ops {
			k := core.Key(raw % 64)
			switch (raw / 64) % 3 {
			case 0:
				_, in := model[k]
				if !in {
					model[k] = core.Value(i)
				}
				if s.Put(c, k, core.Value(i)) == in {
					return false
				}
			case 1:
				_, in := model[k]
				delete(model, k)
				if s.Remove(c, k) != in {
					return false
				}
			default:
				_, in := model[k]
				if _, got := s.Get(c, k); got != in {
					return false
				}
			}
		}
		if s.Len() != len(model) {
			return false
		}
		for k, v := range model {
			if gv, ok := s.Get(c, k); !ok || gv != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// runConcurrentShared hammers a small shared key space and checks the
// insert/remove algebra per key.
func runConcurrentShared(t *testing.T, s core.Set) {
	const workers = 8
	iters := scale(4000)
	const keySpace = 32
	type tally struct{ ins, rem int64 }
	tallies := make([][keySpace]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w)*7919 + 17)
			for i := 0; i < iters; i++ {
				k := core.Key(rng.Int63n(keySpace))
				if rng.Bool(0.5) {
					if s.Put(c, k, k) {
						tallies[w][k].ins++
					}
				} else {
					if s.Remove(c, k) {
						tallies[w][k].rem++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	c := ctx()
	total := 0
	for k := 0; k < keySpace; k++ {
		var ins, rem int64
		for w := 0; w < workers; w++ {
			ins += tallies[w][k].ins
			rem += tallies[w][k].rem
		}
		_, present := s.Get(c, core.Key(k))
		delta := ins - rem
		if delta != 0 && delta != 1 {
			t.Fatalf("key %d: successful inserts - removes = %d (linearizability violated)", k, delta)
		}
		if (delta == 1) != present {
			t.Fatalf("key %d: delta %d but present=%v", k, delta, present)
		}
		if present {
			total++
		}
	}
	if got := s.Len(); got != total {
		t.Fatalf("Len = %d, but %d keys present", got, total)
	}
}

// runConcurrentDisjoint gives each worker a private key range; at the end
// each range must exactly match the worker's private model.
func runConcurrentDisjoint(t *testing.T, s core.Set) {
	const workers = 8
	const rangeSize = 64
	iters := scale(4000)
	models := make([]map[core.Key]core.Value, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w)*104729 + 5)
			base := core.Key(w * rangeSize)
			model := map[core.Key]core.Value{}
			for i := 0; i < iters; i++ {
				k := base + core.Key(rng.Int63n(rangeSize))
				switch rng.Uint64n(3) {
				case 0:
					v := core.Value(i)
					_, in := model[k]
					if !in {
						model[k] = v
					}
					if s.Put(c, k, v) == in {
						panic("disjoint Put disagreed with model")
					}
				case 1:
					_, in := model[k]
					delete(model, k)
					if s.Remove(c, k) != in {
						panic("disjoint Remove disagreed with model")
					}
				default:
					_, in := model[k]
					if _, got := s.Get(c, k); got != in {
						panic("disjoint Get disagreed with model")
					}
				}
			}
			models[w] = model
		}(w)
	}
	wg.Wait()
	c := ctx()
	want := 0
	for w := 0; w < workers; w++ {
		want += len(models[w])
		for k, v := range models[w] {
			if gv, ok := s.Get(c, k); !ok || gv != v {
				t.Fatalf("worker %d key %d: Get = (%d, %v), want (%d, true)", w, k, gv, ok, v)
			}
		}
	}
	if s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
}

// runReadersDuringUpdates checks that concurrent readers always see a key
// that is never removed, while churn happens around it.
func runReadersDuringUpdates(t *testing.T, s core.Set) {
	c0 := ctx()
	const anchor = core.Key(500)
	if !s.Put(c0, anchor, 12345) {
		t.Fatal("anchor insert failed")
	}
	stop := make(chan struct{})
	var readers, updaters sync.WaitGroup
	var mu sync.Mutex
	bad := 0
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			c := core.NewCtx(100 + r)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := s.Get(c, anchor); !ok || v != 12345 {
					mu.Lock()
					bad++
					mu.Unlock()
					return
				}
			}
		}(r)
	}
	for w := 0; w < 4; w++ {
		updaters.Add(1)
		go func(w int) {
			defer updaters.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w) + 321)
			deadline := time.Now().Add(wallBudget)
			for i := 0; i < scale(5000); i++ {
				if time.Now().After(deadline) {
					break
				}
				// Churn keys around (but never equal to) the anchor.
				k := core.Key(400 + rng.Int63n(200))
				if k == anchor {
					continue
				}
				if rng.Bool(0.5) {
					s.Put(c, k, k)
				} else {
					s.Remove(c, k)
				}
			}
		}(w)
	}
	updaters.Wait()
	close(stop)
	readers.Wait()
	if bad != 0 {
		t.Fatal("a reader lost sight of the anchor key during unrelated churn")
	}
	if v, ok := s.Get(c0, anchor); !ok || v != 12345 {
		t.Fatal("anchor missing after churn")
	}
}
