package hashtable

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"csds/internal/core"
	"csds/internal/xrand"
)

// ixWindow collects the index's keys in [lo, hi), at most max > 0 of
// them (max < 0: all).
func ixWindow(ix *keyIndex, lo, hi core.Key, max int) []core.Key {
	var got []core.Key
	ix.collect(lo, hi, func(k core.Key, v core.Value) bool {
		if v != core.Value(k)*3 {
			panic("index value does not match its key")
		}
		got = append(got, k)
		return max < 0 || len(got) < max
	})
	return got
}

// modelWindow is ixWindow over a sorted model.
func modelWindow(live []core.Key, lo, hi core.Key, max int) []core.Key {
	var want []core.Key
	for _, k := range live {
		if k >= lo && k < hi && (max < 0 || len(want) < max) {
			want = append(want, k)
		}
	}
	return want
}

// checkQuiescent walks every level of a quiesced index: each level
// ascends from head to tail, no marked node is still linked, no lock is
// held, and level 0 holds exactly the live keys.
func checkQuiescent(t *testing.T, ix *keyIndex, live []core.Key) {
	t.Helper()
	for lvl := 0; lvl < ix.maxLevel; lvl++ {
		prev := ix.head
		for n := ix.head.next[lvl].Load(); n != ix.tail; n = n.next[lvl].Load() {
			if n.key <= prev.key {
				t.Fatalf("level %d: key %d after %d", lvl, n.key, prev.key)
			}
			if n.marked.Load() {
				t.Fatalf("level %d: marked key %d still linked", lvl, n.key)
			}
			if n.lock.Held() {
				t.Fatalf("level %d: key %d left locked", lvl, n.key)
			}
			prev = n
		}
	}
	if ix.head.lock.Held() || ix.tail.lock.Held() {
		t.Fatal("sentinel left locked")
	}
	if got := ixWindow(ix, core.KeyMin, core.KeyMax, -1); !slices.Equal(got, live) {
		t.Fatalf("index holds %v, want %v", got, live)
	}
}

// TestIndexSequentialModel drives random inserts, removes and collects
// against a sorted model, honouring the tables' precondition: insert
// only absent keys, remove only present ones. Keys are multiples of 4
// and windows take any bounds, so they start and end between keys as
// well as on them and at KeyMin/KeyMax.
func TestIndexSequentialModel(t *testing.T) {
	ix := newKeyIndex(64)
	c := core.NewCtx(0)
	rng := xrand.New(7)
	live := map[core.Key]bool{}
	sorted := func() []core.Key {
		ks := make([]core.Key, 0, len(live))
		for k := range live {
			ks = append(ks, k)
		}
		slices.Sort(ks)
		return ks
	}
	bound := func() core.Key {
		switch int(rng.Int63n(8)) {
		case 0:
			return core.KeyMin
		case 1:
			return core.KeyMax
		}
		return core.Key(rng.Int63n(1100)) - 50
	}
	for i := 0; i < 20000; i++ {
		k := core.Key(rng.Int63n(256) * 4)
		switch r := int(rng.Int63n(10)); {
		case r < 4:
			if !live[k] {
				ix.insert(c, k, core.Value(k)*3)
				live[k] = true
			}
		case r < 8:
			if live[k] {
				ix.remove(c, k)
				delete(live, k)
			}
		default:
			lo, hi, max := bound(), bound(), int(rng.Int63n(20))
			if max == 0 {
				max = -1
			}
			if got, want := ixWindow(ix, lo, hi, max), modelWindow(sorted(), lo, hi, max); !slices.Equal(got, want) {
				t.Fatalf("op %d: collect(%d, %d, max %d) = %v, want %v", i, lo, hi, max, got, want)
			}
		}
	}
	checkQuiescent(t, ix, sorted())
}

// TestIndexNeighbourContention: goroutines hammer adjacent keys, each
// owning the keys congruent to its id — the tables' bucket
// serialization, with every writer's neighbours owned by others. At
// quiescence the index must hold exactly the live keys, fully unlinked
// victims and no held lock.
func TestIndexNeighbourContention(t *testing.T) {
	const workers, perWorker = 4, 64
	ops := 20000
	if testing.Short() {
		ops = 4000
	}
	ix := newKeyIndex(workers * perWorker)
	lives := make([][]bool, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lives[w] = make([]bool, perWorker)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			live := lives[w]
			for i := 0; i < ops; i++ {
				j := int(c.Rng.Int63n(perWorker))
				k := core.Key(j*workers + w)
				if live[j] {
					ix.remove(c, k)
				} else {
					ix.insert(c, k, core.Value(k)*3)
				}
				live[j] = !live[j]
			}
		}(w)
	}
	wg.Wait()
	var live []core.Key
	for j := 0; j < perWorker; j++ {
		for w := 0; w < workers; w++ {
			if lives[w][j] {
				live = append(live, core.Key(j*workers+w))
			}
		}
	}
	checkQuiescent(t, ix, live)
}

// TestIndexRemoveWhileNeighbourInserts pins one interleaving of the
// lazy skip list's validation: an insert whose window was searched while
// its level-0 predecessor was live finds that predecessor marked by a
// concurrent remove, fails validation, and lands after the unlink on a
// fresh search. The mirror case, a remove whose window gained an insert
// between its search and its unlink, fails validation the same way.
func TestIndexRemoveWhileNeighbourInserts(t *testing.T) {
	ix := newKeyIndex(64)
	c := core.NewCtx(0)
	for _, k := range []core.Key{10, 30} {
		ix.insert(c, k, core.Value(k)*3)
	}
	var pa, sa [ixMaxMaxLevel]*ixNode
	preds, succs := pa[:ix.maxLevel], sa[:ix.maxLevel]
	if ix.find(20, preds, succs) != -1 || preds[0].key != 10 {
		t.Fatalf("search for 20: found or level-0 pred %d, want absent after 10", preds[0].key)
	}
	victim := preds[0]

	// Hold the victim's predecessor (the head, at every level) so the
	// remove stops after marking, with the victim locked and still linked.
	ix.head.lock.Acquire(nil)
	removed := make(chan struct{})
	go func() {
		ix.remove(c, 10)
		close(removed)
	}()
	for !victim.marked.Load() {
		runtime.Gosched()
	}
	linked := make(chan bool)
	go func() { linked <- link(newIxNode(20, 60, 1), preds, succs) }()
	ix.head.lock.Release()
	<-removed
	if <-linked {
		t.Fatal("insert linked after a marked predecessor")
	}
	ix.insert(c, 20, 60)
	checkQuiescent(t, ix, []core.Key{20, 30})

	// Mirror: a remove of 30 searched before 25 was inserted after 20.
	if ix.find(30, preds, succs) == -1 || preds[0].key != 20 {
		t.Fatalf("search for 30: level-0 pred %d, want 20", preds[0].key)
	}
	ix.insert(c, 25, 75)
	if unlink(succs[0], preds, succs) {
		t.Fatal("remove unlinked through a window that gained a node")
	}
	ix.remove(c, 30)
	checkQuiescent(t, ix, []core.Key{20, 25})
}

// TestLazyIndexOutOfMetrics pins that index maintenance stays out of
// the paper's fine-grained metrics: a write of a fresh key records one
// lock acquisition (its bucket's) and no restart, because every index
// lock is taken with nil stats.
func TestLazyIndexOutOfMetrics(t *testing.T) {
	const n = 500
	s := NewLazy(core.Options{ExpectedSize: n})
	c := core.NewCtx(0)
	for i := 0; i < n; i++ {
		if !s.Put(c, core.Key(i*7), core.Value(i)) {
			t.Fatalf("Put(%d) of a fresh key failed", i*7)
		}
	}
	for i := 0; i < n; i += 2 {
		if !s.Remove(c, core.Key(i*7)) {
			t.Fatalf("Remove(%d) of a present key failed", i*7)
		}
	}
	writes := uint64(n + n/2)
	if c.Stats.LockAcqs != writes || c.Stats.Restarts != 0 {
		t.Fatalf("%d writes recorded %d lock acquisitions and %d restarts, want %d and 0",
			writes, c.Stats.LockAcqs, c.Stats.Restarts, writes)
	}
}
