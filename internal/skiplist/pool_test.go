package skiplist

import (
	"testing"

	"csds/internal/core"
	"csds/internal/ebr"
)

// TestPooledReuse pins the pools' reuse rule after reclaimHNode and
// reclaimPNode. A reclaimed node serves any height up to its tower's
// capacity, reset: links nil, topLevel height-1, flags cleared. A taller
// request never receives the short node: it gets a fresh node with its
// tower inside it, and the draw counts as a pool miss. sync.Pool may
// drop a Put (always possible under -race), so a case whose node did not
// come back checks the fresh node only.
func TestPooledReuse(t *testing.T) {
	c := core.NewCtx(0)
	c.Epoch = ebr.NewDomain().Register()
	defer c.Epoch.Unregister()
	hits := 0
	for _, class := range []int{1, 2, 4, 8, 32} {
		for h := 1; h <= maxMaxLevel; h++ {
			for hNodePool.Get(nil) != nil {
			}
			old := newHNode(5, 6, class)
			old.next[0].Store(old)
			old.fullyLinked.Store(true)
			reclaimHNode(old)
			n := newHNodePooled(c, 7, 8, h)
			if n.key != 7 || n.val != 8 || n.topLevel() != h-1 || cap(n.next) < h || n.marked.Load() || n.fullyLinked.Load() {
				t.Fatalf("hNode class %d, height %d: not reset: key %d, topLevel %d, cap %d", class, h, n.key, n.topLevel(), cap(n.next))
			}
			checkTower(t, n, n.next)
			if n == old {
				if h > cap(old.next) {
					t.Fatalf("hNode class %d served height %d", class, h)
				}
				hits++
			}

			for pNodePool.Get(nil) != nil {
			}
			oldP := newPNode(5, 6, class)
			oldP.next[0].Store(oldP)
			reclaimPNode(oldP)
			p := newPNodePooled(c, 7, 8, h)
			if p.key != 7 || p.val != 8 || p.topLevel() != h-1 || cap(p.next) < h || p.marked.Load() {
				t.Fatalf("pNode class %d, height %d: not reset: key %d, topLevel %d, cap %d", class, h, p.key, p.topLevel(), cap(p.next))
			}
			checkTower(t, p, p.next)
			if p == oldP {
				if h > cap(oldP.next) {
					t.Fatalf("pNode class %d served height %d", class, h)
				}
				hits++
			}
		}
	}
	if hits == 0 {
		t.Fatal("no reclaimed node was ever reused")
	}
	if got := int(c.Stats.PoolHits); got != hits {
		t.Errorf("pool hits %d, want %d: a short node dropped must count as a miss", got, hits)
	}
}
