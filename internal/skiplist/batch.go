// Batched (core.Batcher) paths for the skip lists.
//
// Herlihy runs interleaved batch descents, and implements
// core.PartBatcher so that a partitioning composite hands it one routed
// batch spanning all its shards. A skip-list search is a chain of about
// a dozen dependent cache misses, and one search after another leaves
// the core waiting on one miss at a time. The batch pass instead seats
// up to 64 searches (lanes), each on its own element's part, and
// advances every unfinished lane one hop per round, so a round has as
// many independent loads in flight as there are lanes. A hop selects the
// lane's next node and level without branching on the key compare: a
// compare that mispredicts squashes the loads the other lanes already
// issued, which cost a branchy interleave most of its gain (DESIGN
// "Interleaved batch descents"). The only branch per hop is whether the
// lane has finished. Gets read exactly what Herlihy.Get reads. Writes
// record find's per-level preds and succs for every lane, then apply in
// ascending index order through put and remove, with that search as the
// first attempt's hint. One epoch bracket covers the call.
//
// Pugh and LockFree keep sorted point application (core.SortedMulti*):
// consecutive sorted keys descend through largely the same upper-level
// towers. LockFree's find snips marked nodes, so its search is not the
// read-only traversal the interleaved pass relies on.
package skiplist

import (
	"sync"

	"csds/internal/core"
)

// lanes is how many searches one lockstep window runs side by side. A
// constant, not a knob: 16, 32 and 64 lanes were swept on the repo
// benchmark and 64 — the benchmark's batch, one window — was fastest
// (DESIGN "Interleaved batch descents").
const lanes = 64

// batchWindow is one window's lane state. Lane j serves batch element
// lo+j: its part, key, current node and level, its result, and — for
// writes — its descent. Windows are pooled, so a batch allocates nothing.
type batchWindow struct {
	set  [lanes]*Herlihy
	key  [lanes]core.Key
	pred [lanes]*hNode
	lvl  [lanes]int
	live [lanes]int // the unfinished lanes, in no particular order
	val  [lanes]core.Value
	ok   [lanes]bool
	d    [lanes]descent
}

var windowPool = sync.Pool{New: func() any { return new(batchWindow) }}

// seat puts one lane per part at the top of that part's towers and
// returns how many lanes it seated. Every part must be a *Herlihy.
func (w *batchWindow) seat(parts []core.Set) int {
	for j, p := range parts {
		s := p.(*Herlihy)
		w.set[j], w.pred[j], w.lvl[j], w.live[j] = s, s.head, s.maxLevel-1, j
	}
	return len(parts)
}

// gets runs Herlihy.Get's descent for lanes 0..n-1 in lockstep: each
// lane stops at the highest level where its key is found, then reads
// fullyLinked and marked, or misses below level 0.
func (w *batchWindow) gets(n int) {
	live := w.live[:n]
	for len(live) > 0 {
		for x := 0; x < len(live); {
			j := live[x]
			k, l, pred := w.key[j], w.lvl[j], w.pred[j]
			curr := pred.next[l].Load()
			right := 0
			if curr.key < k {
				right = 1
			}
			w.pred[j] = [2]*hNode{pred, curr}[right]
			l -= 1 - right
			w.lvl[j] = l
			if curr.key == k || l < 0 {
				w.val[j], w.ok[j] = 0, false
				if curr.key == k && curr.fullyLinked.Load() && !curr.marked.Load() {
					w.val[j], w.ok[j] = curr.val, true
				}
				live[x] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			x++
		}
	}
}

// finds runs find for lanes 0..n-1 in lockstep, filling each lane's
// descent with unconditional per-level stores: a lane that steps right
// overwrites its level's pair on the next hop.
func (w *batchWindow) finds(n int) {
	for j := range n {
		w.d[j].found = -1
	}
	live := w.live[:n]
	for len(live) > 0 {
		for x := 0; x < len(live); {
			j := live[x]
			d := &w.d[j]
			k, l, pred := w.key[j], w.lvl[j], w.pred[j]
			curr := pred.next[l].Load()
			d.preds[l], d.succs[l] = pred, curr
			right, at := 0, -1
			if curr.key < k {
				right = 1
			}
			if curr.key == k {
				at = l
			}
			d.found = max(d.found, at)
			w.pred[j] = [2]*hNode{pred, curr}[right]
			l -= 1 - right
			w.lvl[j] = l
			if l < 0 {
				live[x] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			x++
		}
	}
}

// MultiGetIn implements core.PartBatcher: windows of interleaved Get
// descents, each lane on its element's part.
func (s *Herlihy) MultiGetIn(c *core.Ctx, parts []core.Set, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	w := windowPool.Get().(*batchWindow)
	defer windowPool.Put(w)
	for lo := 0; lo < len(keys); lo += lanes {
		n := w.seat(parts[lo:min(lo+lanes, len(keys))])
		copy(w.key[:n], keys[lo:])
		w.gets(n)
		for j := range n {
			f(lo+j, w.val[j], w.ok[j])
		}
	}
}

// MultiPutIn implements core.PartBatcher: each window's searches run
// interleaved, then its inserts apply in index order from them.
func (s *Herlihy) MultiPutIn(c *core.Ctx, parts []core.Set, pairs []core.KV, f func(i int, inserted bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	w := windowPool.Get().(*batchWindow)
	defer windowPool.Put(w)
	for lo := 0; lo < len(pairs); lo += lanes {
		n := w.seat(parts[lo:min(lo+lanes, len(pairs))])
		for j := range n {
			w.key[j] = pairs[lo+j].K
		}
		w.finds(n)
		for j := range n {
			f(lo+j, w.set[j].put(c, w.key[j], pairs[lo+j].V, &w.d[j]))
		}
	}
}

// MultiRemoveIn implements core.PartBatcher like MultiPutIn.
func (s *Herlihy) MultiRemoveIn(c *core.Ctx, parts []core.Set, keys []core.Key, f func(i int, removed bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	w := windowPool.Get().(*batchWindow)
	defer windowPool.Put(w)
	for lo := 0; lo < len(keys); lo += lanes {
		n := w.seat(parts[lo:min(lo+lanes, len(keys))])
		copy(w.key[:n], keys[lo:])
		w.finds(n)
		for j := range n {
			f(lo+j, w.set[j].remove(c, w.key[j], &w.d[j]))
		}
	}
}

// self carves a parts slice naming s for every element: a batch on one
// instance is the one-part case of the interleaved pass.
func (s *Herlihy) self(sc *core.BatchScratch, n int) []core.Set {
	parts := sc.Sets(n)
	for i := range parts {
		parts[i] = s
	}
	return parts
}

// MultiGet implements core.Batcher through MultiGetIn.
func (s *Herlihy) MultiGet(c *core.Ctx, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	sc := core.GetBatchScratch()
	defer sc.Release()
	s.MultiGetIn(c, s.self(sc, len(keys)), keys, f)
}

// MultiPut implements core.Batcher through MultiPutIn.
func (s *Herlihy) MultiPut(c *core.Ctx, pairs []core.KV, f func(i int, inserted bool)) {
	sc := core.GetBatchScratch()
	defer sc.Release()
	s.MultiPutIn(c, s.self(sc, len(pairs)), pairs, f)
}

// MultiRemove implements core.Batcher through MultiRemoveIn.
func (s *Herlihy) MultiRemove(c *core.Ctx, keys []core.Key, f func(i int, removed bool)) {
	sc := core.GetBatchScratch()
	defer sc.Release()
	s.MultiRemoveIn(c, s.self(sc, len(keys)), keys, f)
}

// MultiGet implements core.Batcher by sorted point lookups.
func (s *LockFree) MultiGet(c *core.Ctx, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.SortedMultiGet(c, s, keys, f)
}

// MultiPut implements core.Batcher by sorted point inserts.
func (s *LockFree) MultiPut(c *core.Ctx, pairs []core.KV, f func(i int, inserted bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.SortedMultiPut(c, s, pairs, f)
}

// MultiRemove implements core.Batcher by sorted point removes.
func (s *LockFree) MultiRemove(c *core.Ctx, keys []core.Key, f func(i int, removed bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.SortedMultiRemove(c, s, keys, f)
}

// MultiGet implements core.Batcher by sorted point lookups.
func (s *Pugh) MultiGet(c *core.Ctx, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.SortedMultiGet(c, s, keys, f)
}

// MultiPut implements core.Batcher by sorted point inserts.
func (s *Pugh) MultiPut(c *core.Ctx, pairs []core.KV, f func(i int, inserted bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.SortedMultiPut(c, s, pairs, f)
}

// MultiRemove implements core.Batcher by sorted point removes.
func (s *Pugh) MultiRemove(c *core.Ctx, keys []core.Key, f func(i int, removed bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.SortedMultiRemove(c, s, keys, f)
}
