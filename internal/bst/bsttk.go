// Package bst implements the binary-search-tree set algorithms of the
// paper's Table 1: the featured BST-TK external tree (David, Guerraoui,
// Trigonakis, ASPLOS 2015) with ticket trylocks, and an internal
// per-node-lock BST with logical deletion as a second blocking variant.
package bst

import (
	"sync/atomic"

	"csds/internal/core"
	"csds/internal/htm"
	"csds/internal/locks"
)

// tkNode is a BST-TK node. Internal (router) nodes carry a routing key and
// two children; leaves carry the actual key/value pairs. The lock guards a
// node's child pointers; removed flags a node that has been spliced out so
// late lockers can detect staleness.
type tkNode struct {
	key     core.Key
	val     core.Value
	left    atomic.Pointer[tkNode]
	right   atomic.Pointer[tkNode]
	lock    locks.Ticket
	leaf    bool
	removed atomic.Bool
}

func leafNode(k core.Key, v core.Value) *tkNode {
	return &tkNode{key: k, val: v, leaf: true}
}

// TK is the BST-TK external binary search tree: lock-free search; insert
// locks one node (the parent), remove locks two (parent and grandparent);
// both use trylocks and restart on failure, so no operation ever *waits*
// for a lock — precisely why Figure 5 shows zero waiting time and Figure 6
// a slightly higher restart rate for the BST.
//
// Routing invariant: at an internal node, keys < node.key descend left,
// keys >= node.key descend right.
type TK struct {
	// sroot -> root -> {all real data under root.left}. The extra level
	// gives every removable parent a lockable grandparent.
	sroot  *tkNode
	region htm.Region
	guard  core.ScanGuard // validates optimistic range scans
}

// NewTK builds an empty BST-TK tree.
func NewTK(o core.Options) *TK {
	root := &tkNode{key: core.KeyMax}
	root.left.Store(leafNode(core.KeyMin, 0))
	root.right.Store(leafNode(core.KeyMax, 0))
	sroot := &tkNode{key: core.KeyMax}
	sroot.left.Store(root)
	sroot.right.Store(leafNode(core.KeyMax, 0))
	return &TK{sroot: sroot, region: o.Region()}
}

func init() {
	core.Register(core.Info{
		Name: "bst/tk", Kind: "bst", Progress: "blocking", Featured: true,
		New:  func(o core.Options) core.Set { return NewTK(o) },
		Desc: "BST-TK external tree with ticket trylocks (David et al. 2015)",
	})
}

// child returns the child of n on k's side, and whether it is the right
// side.
func (n *tkNode) child(k core.Key) (*tkNode, bool) {
	if k < n.key {
		return n.left.Load(), false
	}
	return n.right.Load(), true
}

// setChild stores c on the given side.
func (n *tkNode) setChild(right bool, c *tkNode) {
	if right {
		n.right.Store(c)
	} else {
		n.left.Store(c)
	}
}

// search descends to the leaf for k, returning (grandparent, parent, leaf).
func (t *TK) search(k core.Key) (gp, p, l *tkNode) {
	gp = t.sroot
	p = t.sroot.left.Load() // root
	l, _ = p.child(k)
	for !l.leaf {
		gp = p
		p = l
		l, _ = p.child(k)
	}
	return gp, p, l
}

// Get implements core.Set: lock-free descent, no stores, no restarts.
func (t *TK) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	c.EpochEnter()
	defer c.EpochExit()
	_, _, l := t.search(k)
	if l.key == k {
		return l.val, true
	}
	return 0, false
}

// Put implements core.Set.
func (t *TK) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	c.EpochEnter()
	defer c.EpochExit()
	if t.region.Attempts > 0 {
		return t.putElided(c, k, v)
	}
	restarts := 0
	for {
		_, p, l := t.search(k)
		if l.key == k {
			c.RecordRestarts(restarts)
			return false
		}
		if !p.lock.TryAcquire(c.Stat()) {
			restarts++
			continue
		}
		lNow, right := p.child(k)
		if p.removed.Load() || lNow != l {
			p.lock.Release()
			restarts++
			continue
		}
		c.InCS()
		t.guard.BeginWrite(c.Stat())
		p.setChild(right, newSubtree(c, k, v, l))
		t.guard.EndWrite()
		p.lock.Release()
		c.RecordRestarts(restarts)
		return true
	}
}

// newSubtree builds the internal node replacing leaf l when inserting k:
// the router key is the larger of the two, the smaller key goes left.
func newSubtree(c *core.Ctx, k core.Key, v core.Value, l *tkNode) *tkNode {
	nl := leafNodePooled(c, k, v)
	var in *tkNode
	if k < l.key {
		in = routerNodePooled(c, l.key)
		in.left.Store(nl)
		in.right.Store(l)
	} else {
		in = routerNodePooled(c, k)
		in.left.Store(l)
		in.right.Store(nl)
	}
	return in
}

func (t *TK) putElided(c *core.Ctx, k core.Key, v core.Value) bool {
	restarts := 0
	for {
		_, p, l := t.search(k)
		if l.key == k {
			c.RecordRestarts(restarts)
			return false
		}
		var inserted bool
		st := t.region.Run(c.Stat(), c.Injector(), func(a *htm.Acq) htm.Status {
			if !a.Lock(&p.lock) {
				return a.AbortStatus()
			}
			lNow, right := p.child(k)
			if p.removed.Load() || lNow != l {
				return htm.ValidateFail
			}
			if !a.Commit() {
				return a.AbortStatus()
			}
			t.guard.BeginWrite(c.Stat())
			p.setChild(right, newSubtree(c, k, v, l))
			t.guard.EndWrite()
			inserted = true
			return htm.Committed
		})
		if st == htm.Committed {
			c.RecordRestarts(restarts)
			return inserted
		}
		restarts++
	}
}

// Remove implements core.Set: splice the leaf's parent out, promoting the
// sibling.
func (t *TK) Remove(c *core.Ctx, k core.Key) bool {
	c.EpochEnter()
	defer c.EpochExit()
	if t.region.Attempts > 0 {
		return t.removeElided(c, k)
	}
	restarts := 0
	for {
		gp, p, l := t.search(k)
		if l.key != k {
			c.RecordRestarts(restarts)
			return false
		}
		if !gp.lock.TryAcquire(c.Stat()) {
			restarts++
			continue
		}
		if !p.lock.TryAcquire(c.Stat()) {
			gp.lock.Release()
			restarts++
			continue
		}
		if !t.validateRemove(gp, p, l, k) {
			p.lock.Release()
			gp.lock.Release()
			restarts++
			continue
		}
		c.InCS()
		t.guard.BeginWrite(c.Stat())
		t.spliceLocked(gp, p, l, k)
		t.guard.EndWrite()
		p.lock.Release()
		gp.lock.Release()
		c.Retire(p, reclaimTKNode)
		c.Retire(l, reclaimTKNode)
		c.RecordRestarts(restarts)
		return true
	}
}

func (t *TK) validateRemove(gp, p, l *tkNode, k core.Key) bool {
	if gp.removed.Load() || p.removed.Load() {
		return false
	}
	pNow, _ := gp.child(k)
	if pNow != p {
		return false
	}
	lNow, _ := p.child(k)
	return lNow == l
}

// spliceLocked promotes l's sibling into gp's slot for p. Callers hold both
// locks and have validated.
func (t *TK) spliceLocked(gp, p, l *tkNode, k core.Key) {
	_, pRight := gp.child(k)
	_, lRight := p.child(k)
	var sibling *tkNode
	if lRight {
		sibling = p.left.Load()
	} else {
		sibling = p.right.Load()
	}
	p.removed.Store(true)
	l.removed.Store(true)
	gp.setChild(pRight, sibling)
}

func (t *TK) removeElided(c *core.Ctx, k core.Key) bool {
	restarts := 0
	for {
		gp, p, l := t.search(k)
		if l.key != k {
			c.RecordRestarts(restarts)
			return false
		}
		var removed bool
		st := t.region.Run(c.Stat(), c.Injector(), func(a *htm.Acq) htm.Status {
			if !a.Lock(&gp.lock) || !a.Lock(&p.lock) {
				return a.AbortStatus()
			}
			if !t.validateRemove(gp, p, l, k) {
				return htm.ValidateFail
			}
			if !a.Commit() {
				return a.AbortStatus()
			}
			t.guard.BeginWrite(c.Stat())
			t.spliceLocked(gp, p, l, k)
			t.guard.EndWrite()
			removed = true
			return htm.Committed
		})
		if st == htm.Committed {
			if removed {
				c.Retire(p, reclaimTKNode)
				c.Retire(l, reclaimTKNode)
			}
			c.RecordRestarts(restarts)
			return removed
		}
		restarts++
	}
}

// Len implements core.Set (quiesced use): counts non-sentinel leaves.
func (t *TK) Len() int {
	return countLeaves(t.sroot.left.Load())
}

func countLeaves(n *tkNode) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		if n.key == core.KeyMin || n.key == core.KeyMax {
			return 0
		}
		return 1
	}
	return countLeaves(n.left.Load()) + countLeaves(n.right.Load())
}

// Range implements core.Ranger: an in-order walk over non-sentinel
// leaves, quiesced-use like Len.
func (t *TK) Range(f func(k core.Key, v core.Value) bool) {
	rangeLeaves(t.sroot.left.Load(), f)
}

// rangeLeaves walks n's leaves in order; it reports whether iteration
// should continue.
func rangeLeaves(n *tkNode, f func(k core.Key, v core.Value) bool) bool {
	if n == nil {
		return true
	}
	if n.leaf {
		if n.key == core.KeyMin || n.key == core.KeyMax {
			return true
		}
		return f(n.key, n.val)
	}
	return rangeLeaves(n.left.Load(), f) && rangeLeaves(n.right.Load(), f)
}

// Scan implements core.Scanner: a bounded in-order descent over the
// external tree — only subtrees whose routing interval intersects
// [lo, hi) are visited — under the optimistic scan guard; atomic per
// call.
func (t *TK) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	if lo >= hi {
		return true
	}
	c.EpochEnter()
	defer c.EpochExit()
	return core.GuardedScan(c, &t.guard, func(emit func(k core.Key, v core.Value)) {
		scanLeaves(t.sroot.left.Load(), lo, hi, emit)
	}, f)
}

// scanLeaves emits the in-range, non-sentinel leaves of n in key order.
// Routing invariant: keys < n.key live left, keys >= n.key live right.
func scanLeaves(n *tkNode, lo, hi core.Key, emit func(k core.Key, v core.Value)) {
	if n == nil {
		return
	}
	if n.leaf {
		if n.key >= lo && n.key < hi && n.key != core.KeyMin && n.key != core.KeyMax {
			emit(n.key, n.val)
		}
		return
	}
	if lo < n.key {
		scanLeaves(n.left.Load(), lo, hi, emit)
	}
	if hi > n.key {
		scanLeaves(n.right.Load(), lo, hi, emit)
	}
}

// CursorNext implements core.Cursor: a bounded in-order page over the
// external tree under the scan guard. The descent prunes every subtree
// whose routing interval lies below the token position, so resuming a
// page costs O(log n) routing plus the page itself — the delivered
// prefix is never re-walked.
func (t *TK) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	if pos >= hi {
		return hi, true
	}
	c.EpochEnter()
	defer c.EpochExit()
	return core.GuardedPage(c, &t.guard, hi, max, func(emit func(k core.Key, v core.Value) bool) {
		pageLeaves(t.sroot.left.Load(), pos, hi, emit)
	}, f)
}

// pageLeaves emits the in-range, non-sentinel leaves of n in key order,
// stopping as soon as emit reports the page full; it reports whether the
// walk should continue.
func pageLeaves(n *tkNode, lo, hi core.Key, emit func(k core.Key, v core.Value) bool) bool {
	if n == nil {
		return true
	}
	if n.leaf {
		if n.key >= lo && n.key < hi && n.key != core.KeyMin && n.key != core.KeyMax {
			return emit(n.key, n.val)
		}
		return true
	}
	if lo < n.key {
		if !pageLeaves(n.left.Load(), lo, hi, emit) {
			return false
		}
	}
	if hi > n.key {
		return pageLeaves(n.right.Load(), lo, hi, emit)
	}
	return true
}
