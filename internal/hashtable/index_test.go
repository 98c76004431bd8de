package hashtable

import (
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"csds/internal/core"
	"csds/internal/list"
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
// lock acquisition (its bucket's) and no restart, before the index is
// built and after — the build's sweep takes the bucket locks with nil
// stats, and every index lock is taken with nil stats.
func TestLazyIndexOutOfMetrics(t *testing.T) {
	const n = 500
	s := NewLazy(core.Options{ExpectedSize: 2 * n})
	c := core.NewCtx(0)
	writes := uint64(0)
	churn := func(base core.Key) {
		t.Helper()
		for i := 0; i < n; i++ {
			if k := base + core.Key(i*7); !s.Put(c, k, core.Value(k)*3) {
				t.Fatalf("Put(%d) of a fresh key failed", k)
			}
		}
		for i := 0; i < n; i += 2 {
			if k := base + core.Key(i*7); !s.Remove(c, k) {
				t.Fatalf("Remove(%d) of a present key failed", k)
			}
		}
		writes += n + n/2
		if c.Stats.LockAcqs != writes || c.Stats.Restarts != 0 {
			t.Fatalf("%d writes recorded %d lock acquisitions and %d restarts, want %d and 0",
				writes, c.Stats.LockAcqs, c.Stats.Restarts, writes)
		}
	}
	churn(0)
	if s.index.head.next[0].Load() != s.index.tail {
		t.Fatal("point-only traffic built the index")
	}
	s.Scan(c, core.KeyMin, core.KeyMax, func(core.Key, core.Value) bool { return true })
	churn(1)
	var live []core.Key
	for i := 1; i < n; i += 2 {
		live = append(live, core.Key(i*7), core.Key(i*7+1))
	}
	slices.Sort(live)
	checkQuiescent(t, s.index, live)
}

// indexedTables are the table kinds that keep an ordered index, each
// with a handle on it: the lazy table (locked and elided), the striped
// table and one bucketed table.
var indexedTables = []struct {
	name string
	mk   func(o core.Options) (core.Set, *keyIndex)
}{
	{"lazy", func(o core.Options) (core.Set, *keyIndex) {
		h := NewLazy(o)
		return h, h.index
	}},
	{"lazy/elided", func(o core.Options) (core.Set, *keyIndex) {
		o.ElideAttempts = 5
		h := NewLazy(o)
		return h, h.index
	}},
	{"striped", func(o core.Options) (core.Set, *keyIndex) {
		h := NewStriped(o)
		return h, h.index
	}},
	{"pugh", func(o core.Options) (core.Set, *keyIndex) {
		b := NewBucketed(o, func(so core.Options) core.Set { return list.NewPugh(so) })
		return b, b.index
	}},
}

// orderedReads are the two reads that build an index: a full Scan, and
// a full walk in CursorNext pages of 7.
var orderedReads = []struct {
	name string
	read func(s core.Set, c *core.Ctx) []core.Key
}{
	{"Scan", func(s core.Set, c *core.Ctx) []core.Key {
		var got []core.Key
		s.(core.Scanner).Scan(c, core.KeyMin, core.KeyMax, func(k core.Key, v core.Value) bool {
			got = append(got, k)
			return true
		})
		return got
	}},
	{"CursorNext", func(s core.Set, c *core.Ctx) []core.Key {
		var got []core.Key
		for pos, done := core.Key(core.KeyMin), false; !done; {
			pos, done = s.(core.Cursor).CursorNext(c, pos, core.KeyMax, 7, func(k core.Key, v core.Value) bool {
				got = append(got, k)
				return true
			})
		}
		return got
	}},
}

// TestIndexBuiltOnFirstOrderedRead: point-only traffic leaves a table's
// index empty; the first Scan or CursorNext builds it to exactly the
// live keys, and later writes keep it so.
func TestIndexBuiltOnFirstOrderedRead(t *testing.T) {
	for _, tc := range indexedTables {
		for _, rd := range orderedReads {
			t.Run(tc.name+"/"+rd.name, func(t *testing.T) {
				s, ix := tc.mk(core.Options{ExpectedSize: 256})
				c := core.NewCtx(0)
				live := map[core.Key]bool{}
				toggle := func(k core.Key) {
					t.Helper()
					if live[k] {
						if !s.Remove(c, k) {
							t.Fatalf("Remove(%d) of a present key failed", k)
						}
						delete(live, k)
					} else {
						if !s.Put(c, k, core.Value(k)*3) {
							t.Fatalf("Put(%d) of an absent key failed", k)
						}
						live[k] = true
					}
				}
				for k := core.Key(0); k < 512; k += 2 {
					toggle(k)
				}
				for k := core.Key(0); k < 512; k += 6 {
					toggle(k)
				}
				for k := core.Key(0); k < 512; k++ {
					if _, ok := s.Get(c, k); ok != live[k] {
						t.Fatalf("Get(%d) = %v, want %v", k, ok, live[k])
					}
				}
				if ix.head.next[0].Load() != ix.tail {
					t.Fatal("point-only traffic built the index")
				}
				want := slices.Sorted(maps.Keys(live))
				if got := rd.read(s, c); !slices.Equal(got, want) {
					t.Fatalf("first ordered read = %v, want %v", got, want)
				}
				checkQuiescent(t, ix, want)
				for i := 0; i < 2000; i++ {
					toggle(core.Key(c.Rng.Int63n(600)))
				}
				checkQuiescent(t, ix, slices.Sorted(maps.Keys(live)))
			})
		}
	}
}

// TestIndexBuildUnderWriters: four writers churn adjacent keys, each
// owning the keys congruent to its id, while several goroutines issue
// the table's first Scan at once — one of them builds the index under
// the writers, the others wait for it. Every scan must deliver an
// ascending run of real mappings, and at quiescence the index must hold
// exactly the live keys with no lock held. Run it under -race.
func TestIndexBuildUnderWriters(t *testing.T) {
	const writers, perWriter, scanners, minOps = 4, 512, 3, 2000
	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	for _, tc := range indexedTables {
		t.Run(tc.name, func(t *testing.T) {
			for r := 0; r < rounds; r++ {
				s, ix := tc.mk(core.Options{ExpectedSize: writers * perWriter})
				fill := core.NewCtx(writers + scanners)
				lives := make([][]bool, writers)
				for w := range lives {
					lives[w] = make([]bool, perWriter)
					for j := 0; j < perWriter; j += 2 {
						k := core.Key(j*writers + w)
						s.Put(fill, k, core.Value(k)*3)
						lives[w][j] = true
					}
				}
				var stop atomic.Bool
				start := make(chan struct{})
				var release sync.Once // writer 0 releases the scanners, early if it fails
				var wg, sg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						if w == 0 {
							defer release.Do(func() { close(start) })
						}
						c := core.NewCtx(w)
						live := lives[w]
						for i := 0; i < minOps || !stop.Load(); i++ {
							j := int(c.Rng.Int63n(perWriter))
							k := core.Key(j*writers + w)
							if live[j] && !s.Remove(c, k) || !live[j] && !s.Put(c, k, core.Value(k)*3) {
								t.Errorf("writer %d: update of its own key %d failed", w, k)
								return
							}
							live[j] = !live[j]
							if i == 100 && w == 0 {
								release.Do(func() { close(start) })
							}
						}
					}(w)
				}
				for sc := 0; sc < scanners; sc++ {
					sg.Add(1)
					go func(sc int) {
						defer sg.Done()
						c := core.NewCtx(writers + sc)
						<-start
						prev := core.Key(core.KeyMin)
						s.(core.Scanner).Scan(c, core.KeyMin, core.KeyMax, func(k core.Key, v core.Value) bool {
							if k <= prev || v != core.Value(k)*3 || k >= writers*perWriter {
								t.Errorf("scanner %d: %d=%d after %d", sc, k, v, prev)
								return false
							}
							prev = k
							return true
						})
					}(sc)
				}
				sg.Wait()
				stop.Store(true)
				wg.Wait()
				if t.Failed() {
					return
				}
				var live []core.Key
				for j := 0; j < perWriter; j++ {
					for w := 0; w < writers; w++ {
						if lives[w][j] {
							live = append(live, core.Key(j*writers+w))
						}
					}
				}
				checkQuiescent(t, ix, live)
			}
		})
	}
}
