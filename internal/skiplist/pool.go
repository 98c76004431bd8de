// Typed free-lists and reclaim callbacks for the skip-list nodes
// (DESIGN.md, "Pooling contract"). A node and its tower are one object
// (core.NewTower), so reuse is tower-aware: a pooled node serves any
// height up to its tower's capacity, resliced to the requested height.
// A pooled node too short for the request is left to the GC and a fresh
// node allocated in its place — its tower cannot grow in place, and a
// second, separate tower would bring back the extra miss per hop.
//
// Only the two lock-based skip lists pool. Their removes unlink the
// victim from every level (under locks, or under Pugh's per-level helping
// pass) before retiring it, so after the grace period no structure-
// resident pointer can reach the node. The lock-free skip list retires at
// the level-0 snip, but a concurrent same-key insert can publish an
// upper-level link to the marked victim and then hide it (equal keys stop
// the helping walk), leaving a structure-resident reference long after
// any bracket — so lfNode retirements carry a nil callback and fall to
// the GC, like the wait-free list (see DESIGN.md).
package skiplist

import "csds/internal/core"

var (
	hNodePool core.Pool
	pNodePool core.Pool
)

func newHNodePooled(c *core.Ctx, k core.Key, v core.Value, height int) *hNode {
	if c.Pooled() {
		if n, _ := hNodePool.Get(c).(*hNode); n != nil {
			if cap(n.next) >= height {
				n.next = n.next[:height]
				for i := range n.next {
					n.next[i].Store(nil)
				}
				n.key, n.val = k, v
				n.marked.Store(false)
				n.fullyLinked.Store(false)
				return n
			}
			hNodePool.Drop(c) // tower too short: left to the GC
		}
	}
	return newHNode(k, v, height)
}

func reclaimHNode(p any) {
	n := p.(*hNode)
	n.key, n.val = core.PoisonKey, core.PoisonValue
	n.marked.Store(true)
	for i := range n.next {
		n.next[i].Store(nil)
	}
	hNodePool.Put(n)
}

func newPNodePooled(c *core.Ctx, k core.Key, v core.Value, height int) *pNode {
	if c.Pooled() {
		if n, _ := pNodePool.Get(c).(*pNode); n != nil {
			if cap(n.next) >= height {
				n.next = n.next[:height]
				for i := range n.next {
					n.next[i].Store(nil)
				}
				n.key, n.val = k, v
				n.marked.Store(false)
				return n
			}
			pNodePool.Drop(c) // tower too short: left to the GC
		}
	}
	return newPNode(k, v, height)
}

func reclaimPNode(p any) {
	n := p.(*pNode)
	n.key, n.val = core.PoisonKey, core.PoisonValue
	n.marked.Store(true)
	for i := range n.next {
		n.next[i].Store(nil)
	}
	pNodePool.Put(n)
}
