// Package settest is a reusable conformance and stress suite for core.Set
// implementations. Every algorithm package runs the same battery:
//
//   - sequential semantics against a model map (directed and randomized,
//     including a testing/quick property run);
//   - set-theoretic concurrent invariants: for every key, the number of
//     successful inserts minus successful removes equals its final
//     presence (each successful Put is an absent→present transition and
//     each successful Remove a present→absent transition, so the algebra
//     holds for any linearizable set regardless of interleaving);
//   - disjoint-key concurrency (each worker owns a key range; its slice of
//     the structure must match its private model exactly);
//   - EBR integration (when a domain is supplied, retired never exceeds
//     removed and readers never observe reclaimed state);
//   - concurrent-resize conformance for core.Resizable composites: the
//     same invariants hold while the partition width is grown and shrunk
//     underneath the workload (RunResizable).
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

// RunSpec executes the full battery against an algorithm specification —
// plain ("list/lazy") or composite ("sharded(16,list/lazy)") — resolved
// through the layered core factory. The caller's test package must import
// the implementation (and, for composites, csds/internal/combinator)
// packages so the registries are populated.
func RunSpec(t *testing.T, spec string) {
	t.Helper()
	f, err := core.NewFactory(spec)
	if err != nil {
		t.Fatalf("settest: resolving spec: %v", err)
	}
	Run(t, Factory(f))
}

// Run executes the full battery against the factory.
func Run(t *testing.T, f Factory) {
	t.Helper()
	t.Run("EmptyBehaviour", func(t *testing.T) { testEmpty(t, f) })
	t.Run("BasicSemantics", func(t *testing.T) { testBasic(t, f) })
	t.Run("OrderedFill", func(t *testing.T) { testOrderedFill(t, f) })
	t.Run("SequentialModel", func(t *testing.T) { testSequentialModel(t, f) })
	t.Run("QuickProperty", func(t *testing.T) { testQuickProperty(t, f) })
	t.Run("ConcurrentSharedKeys", func(t *testing.T) { testConcurrentShared(t, f) })
	t.Run("ConcurrentDisjointKeys", func(t *testing.T) { testConcurrentDisjoint(t, f) })
	t.Run("ConcurrentReadersDuringUpdates", func(t *testing.T) { testReadersDuringUpdates(t, f) })
}

// RunElided re-runs the concurrent battery with HTM elision enabled, for
// structures that support it.
func RunElided(t *testing.T, f Factory) {
	t.Helper()
	wrap := func(o core.Options) core.Set {
		o.ElideAttempts = 5
		return f(o)
	}
	t.Run("ElidedBasic", func(t *testing.T) { testBasic(t, wrap) })
	t.Run("ElidedSequentialModel", func(t *testing.T) { testSequentialModel(t, wrap) })
	t.Run("ElidedConcurrentShared", func(t *testing.T) { testConcurrentShared(t, wrap) })
	t.Run("ElidedConcurrentDisjoint", func(t *testing.T) { testConcurrentDisjoint(t, wrap) })
}

// RunResizable executes the concurrent battery against a core.Resizable
// factory while a dedicated goroutine resizes the structure the whole
// time, cycling the width up and down so both grow and shrink migrations
// race the workload. The linearizability checks are the same set-algebra
// and anchor-visibility arguments as the static battery: they must hold
// regardless of how often the partition is reshaped underneath.
func RunResizable(t *testing.T, f Factory) {
	t.Helper()
	resizing := func(name string, body func(t *testing.T, s core.Set)) {
		t.Run(name, func(t *testing.T) {
			s := f(core.Options{ExpectedSize: 256})
			rz, ok := s.(core.Resizable)
			if !ok {
				t.Fatalf("settest: factory built %T, which is not core.Resizable", s)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var resizeErr error // written by the resizer, read after wg.Wait
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := core.NewCtx(999)
				widths := []int{2, 8, 1, 4, 16, 3}
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := rz.Resize(c, widths[i%len(widths)]); err != nil {
						resizeErr = err
						return
					}
				}
			}()
			body(t, s)
			close(stop)
			wg.Wait()
			if resizeErr != nil {
				t.Fatalf("settest: Resize failed during the battery: %v", resizeErr)
			}
			if w := rz.Width(); w < 1 {
				t.Fatalf("final Width = %d", w)
			}
		})
	}
	resizing("SharedKeysUnderResize", func(t *testing.T, s core.Set) {
		runConcurrentShared(t, s)
	})
	resizing("ReadersDuringResize", func(t *testing.T, s core.Set) {
		runReadersDuringUpdates(t, s)
	})
}

// RunEBR exercises the set with an EBR domain attached.
func RunEBR(t *testing.T, f Factory) {
	t.Helper()
	dom := ebr.NewDomain()
	s := f(core.Options{Domain: dom, ExpectedSize: 256})
	const workers = 4
	iters := scale(3000)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			c.Epoch = dom.Register()
			rng := xrand.New(uint64(w) + 99)
			for i := 0; i < iters; i++ {
				k := core.Key(rng.Int63n(128))
				c.EpochEnter()
				switch rng.Uint64n(3) {
				case 0:
					s.Put(c, k, k)
				case 1:
					s.Remove(c, k)
				default:
					s.Get(c, k)
				}
				c.EpochExit()
			}
		}(w)
	}
	wg.Wait()
	retired, reclaimed := dom.Stats()
	if reclaimed > retired {
		t.Fatalf("EBR reclaimed %d > retired %d", reclaimed, retired)
	}
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

// testConcurrentShared hammers a small shared key space and checks the
// insert/remove algebra per key.
func testConcurrentShared(t *testing.T, f Factory) {
	runConcurrentShared(t, f(core.Options{ExpectedSize: 64}))
}

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

// testConcurrentDisjoint gives each worker a private key range; at the end
// each range must exactly match the worker's private model.
func testConcurrentDisjoint(t *testing.T, f Factory) {
	s := f(core.Options{ExpectedSize: 1024})
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

// testReadersDuringUpdates checks that concurrent readers always see a key
// that is never removed, while churn happens around it.
func testReadersDuringUpdates(t *testing.T, f Factory) {
	runReadersDuringUpdates(t, f(core.Options{ExpectedSize: 128}))
}

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
			// An iteration budget or a wall budget, whichever ends first:
			// on a structure whose updates convoy (hashtable/cow's ticket
			// lock with 7 spinning goroutines on 2 CPUs) the fixed count
			// alone took 16-68 s for interleavings 2 s already covers.
			deadline := time.Now().Add(2 * time.Second)
			for i := 0; i < scale(5000); i++ {
				if i%64 == 0 && time.Now().After(deadline) {
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
