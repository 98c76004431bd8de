package skiplist

import (
	"runtime"
	"sync"
	"testing"

	"csds/internal/core"
	"csds/internal/settest"
	"csds/internal/xrand"
)

// skiplists is the package's conformance roster, by registry short name.
var skiplists = map[string]settest.Factory{
	"herlihy":  func(o core.Options) core.Set { return NewHerlihy(o) },
	"pugh":     func(o core.Options) core.Set { return NewPugh(o) },
	"lockfree": func(o core.Options) core.Set { return NewLockFree(o) },
}

func TestHerlihy(t *testing.T)       { settest.Run(t, skiplists["herlihy"]) }
func TestHerlihyElided(t *testing.T) { settest.RunElided(t, skiplists["herlihy"]) }
func TestPugh(t *testing.T)          { settest.Run(t, skiplists["pugh"]) }
func TestLockFree(t *testing.T)      { settest.Run(t, skiplists["lockfree"]) }

// TestScanners runs the linearizable range-scan battery on every skip
// list.
func TestScanners(t *testing.T) {
	for name, f := range skiplists {
		t.Run(name, func(t *testing.T) { settest.RunScanner(t, f) })
	}
}

// TestCursors runs the paginated-iteration battery on every skip list.
func TestCursors(t *testing.T) {
	for name, f := range skiplists {
		t.Run(name, func(t *testing.T) { settest.RunCursor(t, f) })
	}
}

// TestCursorPageCost pins O(page) cursor pages on every skip list.
func TestCursorPageCost(t *testing.T) {
	for name, f := range skiplists {
		t.Run(name, func(t *testing.T) { settest.RunCursorPageCost(t, f) })
	}
}

// TestBatchers runs the batched-operation battery on every skip list
// (sorted point application — a resumed level-0 walk would forfeit the
// logarithmic descents, see batch.go).
func TestBatchers(t *testing.T) {
	for name, f := range skiplists {
		t.Run(name, func(t *testing.T) { settest.RunBatcher(t, f) })
	}
}

func TestRegistry(t *testing.T) {
	info, ok := core.Featured("skiplist")
	if !ok || info.Name != "skiplist/herlihy" {
		t.Fatalf("featured skiplist = %+v", info)
	}
	if _, ok := core.Lookup("skiplist/pugh"); !ok {
		t.Fatal("skiplist/pugh not registered")
	}
}

func TestLevelForSize(t *testing.T) {
	cases := map[int]bool{0: true, 10: true, 1024: true, 1 << 30: true}
	for n := range cases {
		l := levelForSize(n)
		if l < 4 || l > maxMaxLevel {
			t.Fatalf("levelForSize(%d) = %d out of bounds", n, l)
		}
	}
	if levelForSize(1024) < levelForSize(16) {
		t.Fatal("levelForSize not monotone")
	}
}

func TestRandomLevelDistribution(t *testing.T) {
	rng := xrand.New(42)
	const draws = 100000
	counts := make([]int, 33)
	for i := 0; i < draws; i++ {
		l := randomLevel(rng, 32)
		if l < 1 || l > 32 {
			t.Fatalf("randomLevel out of range: %d", l)
		}
		counts[l]++
	}
	// P(level 1) = 1/2, P(level 2) = 1/4: check coarse geometry.
	if counts[1] < draws*45/100 || counts[1] > draws*55/100 {
		t.Fatalf("P(level=1) = %f, want ~0.5", float64(counts[1])/draws)
	}
	if counts[2] < draws*20/100 || counts[2] > draws*30/100 {
		t.Fatalf("P(level=2) = %f, want ~0.25", float64(counts[2])/draws)
	}
	// Capped draw.
	for i := 0; i < 1000; i++ {
		if l := randomLevel(rng, 4); l > 4 {
			t.Fatalf("randomLevel ignored cap: %d", l)
		}
	}
}

// TestHerlihyLevel0Sorted checks the bottom-level list invariant after
// concurrent churn.
func TestHerlihyLevel0Sorted(t *testing.T) {
	s := NewHerlihy(core.Options{ExpectedSize: 64})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w) + 31)
			for i := 0; i < 4000; i++ {
				k := core.Key(rng.Int63n(64))
				if rng.Bool(0.5) {
					s.Put(c, k, k)
				} else {
					s.Remove(c, k)
				}
			}
		}(w)
	}
	wg.Wait()
	prev := core.KeyMin
	for n := s.head.next[0].Load(); n.key != core.KeyMax; n = n.next[0].Load() {
		if n.key <= prev {
			t.Fatalf("level 0 unsorted/duplicated: %d after %d", n.key, prev)
		}
		prev = n.key
	}
	// Every upper-level chain must be a subsequence of level 0 ordering.
	for lvl := 1; lvl < s.maxLevel; lvl++ {
		prev := core.KeyMin
		for n := s.head.next[lvl].Load(); n.key != core.KeyMax; n = n.next[lvl].Load() {
			if n.key <= prev {
				t.Fatalf("level %d unsorted: %d after %d", lvl, n.key, prev)
			}
			prev = n.key
		}
	}
}

// TestPughTowersEventuallyClean: after quiescing plus a full sweep of
// operations, no marked node should remain reachable at level 0.
func TestPughTowersEventuallyClean(t *testing.T) {
	s := NewPugh(core.Options{ExpectedSize: 64})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w) + 77)
			for i := 0; i < 3000; i++ {
				k := core.Key(rng.Int63n(32))
				if rng.Bool(0.5) {
					s.Put(c, k, k)
				} else {
					s.Remove(c, k)
				}
			}
		}(w)
	}
	wg.Wait()
	// A final pass of removes cleans every key's path.
	c := core.NewCtx(0)
	for k := core.Key(0); k < 32; k++ {
		s.Remove(c, k)
	}
	for n := s.head.next[0].Load(); n.key != core.KeyMax; n = n.next[0].Load() {
		if n.marked.Load() {
			t.Fatal("marked node still reachable at level 0 after cleaning sweep")
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after removing every key", s.Len())
	}
}

// TestHerlihyPutYieldsToRemover pins the yield on put's marked-node
// branch. On one P, a remover is parked between its mark and its unlink
// (it waits for the level-0 predecessor's lock, which the test holds),
// the lock is freed, and a put of the same key runs on the test
// goroutine. The put finds the node marked; yielding lets the remover
// finish, so the put inserts after one restart. A put that re-searches
// without yielding holds the only P until preemption, restarting
// thousands of times.
func TestHerlihyPutYieldsToRemover(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := NewHerlihy(core.Options{ExpectedSize: 64})
	c := core.NewCtx(0)
	for k := core.Key(0); k <= 100; k += 10 {
		s.Put(c, k, k)
	}
	var d descent
	s.find(50, &d)
	victim, pred := d.succs[d.found], d.preds[0]
	pred.lock.Acquire(nil)
	done := make(chan bool)
	go func() { done <- s.Remove(core.NewCtx(1), 50) }()
	for !victim.marked.Load() {
		runtime.Gosched()
	}
	pred.lock.Release()
	before := c.Stats.Restarts
	if !s.Put(c, 50, 500) {
		t.Fatal("Put of a key being removed returned false")
	}
	if !<-done {
		t.Fatal("the parked Remove returned false")
	}
	if r := c.Stats.Restarts - before; r < 1 || r > 2 {
		t.Fatalf("Put restarted %d times on a marked node, want 1 or 2: it did not yield to the remover", r)
	}
	if v, ok := s.Get(c, 50); !ok || v != 500 {
		t.Fatalf("Get(50) = (%d, %v), want (500, true)", v, ok)
	}
}

func TestHerlihyMaxLevelOption(t *testing.T) {
	s := NewHerlihy(core.Options{MaxLevel: 6})
	if s.maxLevel != 6 {
		t.Fatalf("maxLevel = %d, want 6", s.maxLevel)
	}
	c := core.NewCtx(0)
	for i := 0; i < 500; i++ {
		s.Put(c, core.Key(i), core.Value(i))
	}
	if s.Len() != 500 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := 0; i < 500; i++ {
		if v, ok := s.Get(c, core.Key(i)); !ok || v != core.Value(i) {
			t.Fatalf("Get(%d) = (%d, %v)", i, v, ok)
		}
	}
}

func TestLockFreeLevel0Sorted(t *testing.T) {
	s := NewLockFree(core.Options{ExpectedSize: 64})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w) + 91)
			for i := 0; i < 4000; i++ {
				k := core.Key(rng.Int63n(64))
				if rng.Bool(0.5) {
					s.Put(c, k, k)
				} else {
					s.Remove(c, k)
				}
			}
		}(w)
	}
	wg.Wait()
	prev := core.KeyMin
	for n := s.head.next[0].Load().next; n.key != core.KeyMax; {
		link := n.next[0].Load()
		if !link.marked {
			if n.key <= prev {
				t.Fatalf("lock-free skiplist level 0 unsorted/dup: %d after %d", n.key, prev)
			}
			prev = n.key
		}
		n = link.next
	}
}

func TestLockFreeNeverRecordsLockStats(t *testing.T) {
	s := NewLockFree(core.Options{})
	c := core.NewCtx(0)
	for i := 0; i < 2000; i++ {
		s.Put(c, core.Key(i%64), 1)
		s.Remove(c, core.Key(i%32))
	}
	if c.Stats.LockAcqs != 0 || c.Stats.LockWaits != 0 {
		t.Fatal("lock-free algorithm touched lock statistics")
	}
}
