// Typed free-list and reclaim callback for the bucket-chain nodes
// (DESIGN.md, "Pooling contract"). An lnode is removed by marking it and
// unlinking it from its singly-linked bucket chain under the bucket (or
// stripe) lock, so at retire time the only references left are
// thread-private ones obtained inside epoch brackets — the grace period
// waits those out and the node recycles safely.
//
// The ordered key index does not pool. An ixNode is retired once its
// remove has unlinked it from every level under the neighbours' locks,
// so the hidden same-key link of the old lock-free index (a
// structure-resident reference no bracket bounds) cannot arise. The
// retirements still carry a nil callback and fall to the GC, by choice,
// until the pooling checker of ROADMAP item 1(d) exists to prove a
// recycled ixNode safe (see DESIGN.md).
package hashtable

import "csds/internal/core"

var lnodePool core.Pool

func newLNode(c *core.Ctx, k core.Key, v core.Value, next *lnode) *lnode {
	if c.Pooled() {
		if n, _ := lnodePool.Get(c).(*lnode); n != nil {
			n.key, n.val = k, v
			n.marked.Store(false)
			n.next.Store(next)
			return n
		}
	}
	n := &lnode{key: k, val: v}
	n.next.Store(next)
	return n
}

func reclaimLNode(p any) {
	n := p.(*lnode)
	n.key, n.val = core.PoisonKey, core.PoisonValue
	n.marked.Store(true)
	n.next.Store(nil)
	lnodePool.Put(n)
}
