package list

import (
	"sync"
	"testing"

	"csds/internal/core"
	"csds/internal/settest"
	"csds/internal/stats"
	"csds/internal/xrand"
)

// lists is the package's conformance roster, by registry short name.
var lists = map[string]settest.Factory{
	"lazy":         func(o core.Options) core.Set { return NewLazy(o) },
	"lockcoupling": func(o core.Options) core.Set { return NewLockCoupling(o) },
	"pugh":         func(o core.Options) core.Set { return NewPugh(o) },
	"cow":          func(o core.Options) core.Set { return NewCOW(o) },
	"harris":       func(o core.Options) core.Set { return NewHarris(o) },
	"waitfree":     func(o core.Options) core.Set { return NewWaitFree(o) },
}

func TestLazy(t *testing.T)         { settest.Run(t, lists["lazy"]) }
func TestLazyElided(t *testing.T)   { settest.RunElided(t, lists["lazy"]) }
func TestLockCoupling(t *testing.T) { settest.Run(t, lists["lockcoupling"]) }
func TestPugh(t *testing.T)         { settest.Run(t, lists["pugh"]) }
func TestCOW(t *testing.T)          { settest.Run(t, lists["cow"]) }
func TestHarris(t *testing.T)       { settest.Run(t, lists["harris"]) }
func TestWaitFree(t *testing.T)     { settest.Run(t, lists["waitfree"]) }

// TestScanners runs the linearizable range-scan battery on every list.
func TestScanners(t *testing.T) {
	for name, f := range lists {
		t.Run(name, func(t *testing.T) { settest.RunScanner(t, f) })
	}
}

// TestLazyScannerElided runs the whole scan battery with HTM elision on
// the update paths: the guard windows inside elided critical sections
// must validate scans exactly like the plain-lock paths. (The battery's
// own Elided leg under TestScanners re-runs only its concurrent bodies.)
func TestLazyScannerElided(t *testing.T) {
	settest.RunScanner(t, func(o core.Options) core.Set {
		o.ElideAttempts = 5
		return NewLazy(o)
	})
}

// TestCursors runs the paginated-iteration battery on every list:
// resumable pages, ascending, duplicate-free, anchor-complete.
func TestCursors(t *testing.T) {
	for name, f := range lists {
		t.Run(name, func(t *testing.T) { settest.RunCursor(t, f) })
	}
}

// TestLazyCursorElided re-runs the cursor battery with HTM elision on
// the update paths, mirroring TestLazyScannerElided.
func TestLazyCursorElided(t *testing.T) {
	settest.RunCursor(t, func(o core.Options) core.Set {
		o.ElideAttempts = 5
		return NewLazy(o)
	})
}

// TestCursorPageCost pins O(page) cursor pages on every list.
func TestCursorPageCost(t *testing.T) {
	for name, f := range lists {
		t.Run(name, func(t *testing.T) { settest.RunCursorPageCost(t, f) })
	}
}

// TestBatchers runs the batched-operation battery on every list: model
// conformance over random batch shapes (duplicates, misses, empties),
// caller-order delivery, and the concurrent batch algebra — covering
// both the bespoke single-traversal paths (lazy, lockcoupling, cow,
// harris reads) and the generic sorted delegation (pugh, waitfree).
func TestBatchers(t *testing.T) {
	for name, f := range lists {
		t.Run(name, func(t *testing.T) { settest.RunBatcher(t, f) })
	}
}

func TestRegistryEntries(t *testing.T) {
	for _, name := range []string{"list/lazy", "list/lockcoupling", "list/pugh", "list/cow", "list/harris", "list/waitfree"} {
		info, ok := core.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		s := info.New(core.Options{})
		if s.Len() != 0 {
			t.Fatalf("%s: fresh instance non-empty", name)
		}
	}
	feat, ok := core.Featured("list")
	if !ok || feat.Name != "list/lazy" {
		t.Fatalf("featured list = %+v, want list/lazy", feat)
	}
}

// TestLazySortedInvariant checks the physical list stays sorted and
// duplicate-free under churn.
func TestLazySortedInvariant(t *testing.T) {
	l := NewLazy(core.Options{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w) + 1)
			for i := 0; i < 5000; i++ {
				k := core.Key(rng.Int63n(64))
				if rng.Bool(0.5) {
					l.Put(c, k, k)
				} else {
					l.Remove(c, k)
				}
			}
		}(w)
	}
	wg.Wait()
	prev := core.KeyMin
	for n := l.head.next.Load(); n != nil && n.key != core.KeyMax; n = n.next.Load() {
		if n.key <= prev {
			t.Fatalf("list unsorted or duplicated: %d after %d", n.key, prev)
		}
		prev = n.key
	}
}

// TestHarrisSortedInvariant does the same for the lock-free list.
func TestHarrisSortedInvariant(t *testing.T) {
	l := NewHarris(core.Options{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w) + 7)
			for i := 0; i < 5000; i++ {
				k := core.Key(rng.Int63n(64))
				if rng.Bool(0.5) {
					l.Put(c, k, k)
				} else {
					l.Remove(c, k)
				}
			}
		}(w)
	}
	wg.Wait()
	prev := core.KeyMin
	for n := l.head.link.Load().next; n.key != core.KeyMax; n = n.link.Load().next {
		if n.link.Load().marked {
			continue
		}
		if n.key <= prev {
			t.Fatalf("harris list unsorted/duplicated: %d after %d", n.key, prev)
		}
		prev = n.key
	}
}

// TestWaitFreeSortedInvariant: same structural check for the wait-free
// list, plus no reachable node may carry a poison mark (poisoned nodes are
// never linked).
func TestWaitFreeSortedInvariant(t *testing.T) {
	l := NewWaitFree(core.Options{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w) + 13)
			for i := 0; i < 4000; i++ {
				k := core.Key(rng.Int63n(64))
				if rng.Bool(0.5) {
					l.Put(c, k, k)
				} else {
					l.Remove(c, k)
				}
			}
		}(w)
	}
	wg.Wait()
	prev := core.KeyMin
	for n := l.head.link.Load().next; n.key != core.KeyMax; n = n.link.Load().next {
		link := n.link.Load()
		if link.src == poisonDesc {
			t.Fatal("poisoned node reachable in the list")
		}
		if link.marked {
			continue
		}
		if n.key <= prev {
			t.Fatalf("waitfree list unsorted/duplicated: %d after %d", n.key, prev)
		}
		prev = n.key
	}
}

// TestLazyRestartCounting: force a validation failure and check it lands in
// the stats.
func TestLazyRestartCounting(t *testing.T) {
	// Single-threaded operations never restart.
	l := NewLazy(core.Options{})
	c := core.NewCtx(0)
	for i := 0; i < 1000; i++ {
		l.Put(c, core.Key(i), 0)
	}
	if c.Stats.RestartedOps[0] == 0 {
		t.Fatal("no operations recorded in restart bucket 0")
	}
	for i := 1; i < stats.RestartBuckets; i++ {
		if c.Stats.RestartedOps[i] != 0 {
			t.Fatalf("sequential run recorded %d ops with %d restarts", c.Stats.RestartedOps[i], i)
		}
	}
}

// TestLockCouplingWaits: under contention the lock-coupling list must
// accumulate lock waits (that is its defining pathology).
func TestLockCouplingWaits(t *testing.T) {
	l := NewLockCoupling(core.Options{})
	seed := core.NewCtx(0)
	for i := 0; i < 512; i++ {
		l.Put(seed, core.Key(i*2), 0)
	}
	var wg sync.WaitGroup
	ths := make([]stats.Thread, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			c.Stats = &ths[w]
			rng := xrand.New(uint64(w) + 5)
			// Enough work that each worker outlives several scheduler
			// timeslices (~10ms each): a preempted worker holding a
			// coupling lock forces waits in the others even on a
			// single-CPU host, where 3000 iterations fit inside one
			// slice and would record nothing.
			for i := 0; i < 30000; i++ {
				l.Get(c, core.Key(rng.Int63n(1024)))
			}
		}(w)
	}
	wg.Wait()
	var waits uint64
	for i := range ths {
		waits += ths[i].LockWaits
	}
	if waits == 0 {
		t.Fatal("lock-coupling under contention recorded zero lock waits")
	}
}

// TestWaitFreeCtxIDGuard: out-of-range worker IDs must be rejected loudly.
func TestWaitFreeCtxIDGuard(t *testing.T) {
	l := NewWaitFree(core.Options{})
	c := core.NewCtx(0)
	c.ID = wfMaxThreads
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Ctx.ID did not panic")
		}
	}()
	l.Put(c, 1, 1)
}

func TestLazyValueFidelity(t *testing.T) {
	l := NewLazy(core.Options{})
	c := core.NewCtx(0)
	l.Put(c, 5, 500)
	l.Put(c, 3, 300)
	l.Put(c, 9, 900)
	for _, kv := range [][2]core.Key{{3, 300}, {5, 500}, {9, 900}} {
		if v, ok := l.Get(c, kv[0]); !ok || v != kv[1] {
			t.Fatalf("Get(%d) = (%d, %v)", kv[0], v, ok)
		}
	}
}
