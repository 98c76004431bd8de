// Package list implements the linked-list set algorithms of the paper's
// Table 1: the featured lazy list (Heller et al., the best-performing
// blocking list), the lock-coupling list (the naive contrast of §5.1),
// a Pugh-style per-node-lock list, a copy-on-write list, Harris's
// lock-free list, and a wait-free descriptor-based list (Timnat et al.
// style) for the Figure 1 comparison.
package list

import (
	"sync/atomic"

	"csds/internal/core"
	"csds/internal/htm"
	"csds/internal/locks"
)

// lazyNode is a lazy-list node. The next pointer is atomic so the parse
// phase is synchronization-free; marked is the logical-deletion flag that
// makes wait-free Get possible.
type lazyNode struct {
	key    core.Key
	val    core.Value
	marked atomic.Bool
	next   atomic.Pointer[lazyNode]
	lock   locks.TAS
}

// Lazy is the lazy concurrent list-based set (Heller, Herlihy, Luchangco,
// Moir, Scherer, Shavit, OPODIS 2006): wait-free contains, optimistic
// updates that lock only the two nodes around the modification point and
// validate before writing. This is the paper's featured linked list.
type Lazy struct {
	head   *lazyNode
	region htm.Region
	guard  core.ScanGuard // validates optimistic range scans
}

// NewLazy builds an empty lazy list.
func NewLazy(o core.Options) *Lazy {
	tail := &lazyNode{key: core.KeyMax}
	head := &lazyNode{key: core.KeyMin}
	head.next.Store(tail)
	return &Lazy{head: head, region: o.Region()}
}

func init() {
	core.Register(core.Info{
		Name: "list/lazy", Kind: "list", Progress: "blocking", Featured: true,
		New:  func(o core.Options) core.Set { return NewLazy(o) },
		Desc: "lazy concurrent list-based set (Heller et al. 2006)",
	})
}

// search is the parse phase: pure pointer chasing, no stores, no restarts
// (§3.1). Returns pred, curr with pred.key < k <= curr.key.
func (l *Lazy) search(k core.Key) (pred, curr *lazyNode) {
	pred = l.head
	curr = pred.next.Load()
	for curr.key < k {
		pred = curr
		curr = curr.next.Load()
	}
	return pred, curr
}

// validate re-checks the window under locks: neither node logically
// deleted, and still adjacent.
func validateLazy(pred, curr *lazyNode) bool {
	return !pred.marked.Load() && !curr.marked.Load() && pred.next.Load() == curr
}

// Get implements core.Set. It performs no stores and never restarts: the
// read path of a state-of-the-art blocking CSDS (§3.1).
func (l *Lazy) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	c.EpochEnter()
	_, curr := l.search(k)
	v, ok := curr.val, curr.key == k && !curr.marked.Load()
	c.EpochExit()
	return v, ok
}

// Put implements core.Set.
func (l *Lazy) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	c.EpochEnter()
	defer c.EpochExit()
	if l.region.Attempts > 0 {
		return l.putElided(c, k, v)
	}
	restarts := 0
	for {
		pred, curr := l.search(k)
		pred.lock.Acquire(c.Stat())
		curr.lock.Acquire(c.Stat())
		if validateLazy(pred, curr) {
			if curr.key == k {
				curr.lock.Release()
				pred.lock.Release()
				c.RecordRestarts(restarts)
				return false
			}
			n := newLazyNode(c, k, v)
			n.next.Store(curr)
			c.InCS()
			l.guard.BeginWrite(c.Stat())
			pred.next.Store(n)
			l.guard.EndWrite()
			curr.lock.Release()
			pred.lock.Release()
			c.RecordRestarts(restarts)
			return true
		}
		curr.lock.Release()
		pred.lock.Release()
		restarts++
	}
}

func (l *Lazy) putElided(c *core.Ctx, k core.Key, v core.Value) bool {
	restarts := 0
	n := newLazyNode(c, k, v)
	for {
		pred, curr := l.search(k)
		var inserted bool
		st := l.region.Run(c.Stat(), c.Injector(), func(a *htm.Acq) htm.Status {
			if !a.Lock(&pred.lock) || !a.Lock(&curr.lock) {
				return a.AbortStatus()
			}
			if !validateLazy(pred, curr) {
				return htm.ValidateFail
			}
			if curr.key == k {
				inserted = false
				return htm.Committed
			}
			if !a.Commit() {
				return a.AbortStatus()
			}
			n.next.Store(curr)
			l.guard.BeginWrite(c.Stat())
			pred.next.Store(n)
			l.guard.EndWrite()
			inserted = true
			return htm.Committed
		})
		if st == htm.Committed {
			c.RecordRestarts(restarts)
			return inserted
		}
		restarts++ // ValidateFail: redo the parse phase
	}
}

// Remove implements core.Set: logical deletion (mark) then physical unlink,
// both under the two-node locks.
func (l *Lazy) Remove(c *core.Ctx, k core.Key) bool {
	c.EpochEnter()
	defer c.EpochExit()
	if l.region.Attempts > 0 {
		return l.removeElided(c, k)
	}
	restarts := 0
	for {
		pred, curr := l.search(k)
		pred.lock.Acquire(c.Stat())
		curr.lock.Acquire(c.Stat())
		if validateLazy(pred, curr) {
			if curr.key != k {
				curr.lock.Release()
				pred.lock.Release()
				c.RecordRestarts(restarts)
				return false
			}
			c.InCS()
			l.guard.BeginWrite(c.Stat())
			curr.marked.Store(true)           // logical delete
			pred.next.Store(curr.next.Load()) // physical unlink
			l.guard.EndWrite()
			curr.lock.Release()
			pred.lock.Release()
			c.Retire(curr, reclaimLazyNode)
			c.RecordRestarts(restarts)
			return true
		}
		curr.lock.Release()
		pred.lock.Release()
		restarts++
	}
}

func (l *Lazy) removeElided(c *core.Ctx, k core.Key) bool {
	restarts := 0
	for {
		pred, curr := l.search(k)
		var removed bool
		st := l.region.Run(c.Stat(), c.Injector(), func(a *htm.Acq) htm.Status {
			if !a.Lock(&pred.lock) || !a.Lock(&curr.lock) {
				return a.AbortStatus()
			}
			if !validateLazy(pred, curr) {
				return htm.ValidateFail
			}
			if curr.key != k {
				removed = false
				return htm.Committed
			}
			if !a.Commit() {
				return a.AbortStatus()
			}
			l.guard.BeginWrite(c.Stat())
			curr.marked.Store(true)
			pred.next.Store(curr.next.Load())
			l.guard.EndWrite()
			removed = true
			return htm.Committed
		})
		if st == htm.Committed {
			if removed {
				c.Retire(curr, reclaimLazyNode)
			}
			c.RecordRestarts(restarts)
			return removed
		}
		restarts++
	}
}

// Len implements core.Set (quiesced use).
func (l *Lazy) Len() int {
	n := 0
	for curr := l.head.next.Load(); curr.key != core.KeyMax; curr = curr.next.Load() {
		if !curr.marked.Load() {
			n++
		}
	}
	return n
}

// Range implements core.Ranger: an in-order level walk over unmarked
// nodes, quiesced-use like Len.
func (l *Lazy) Range(f func(k core.Key, v core.Value) bool) {
	for curr := l.head.next.Load(); curr.key != core.KeyMax; curr = curr.next.Load() {
		if !curr.marked.Load() && !f(curr.key, curr.val) {
			return
		}
	}
}

// Scan implements core.Scanner: an optimistic guard-validated walk of the
// range — the same synchronization-free traversal as Get, accepted only
// when no update ran concurrently, with bounded retries and a brief
// writer barrier as the fallback (see core.GuardedScan). The returned
// snapshot is atomic: the scan linearizes at one point during the call.
func (l *Lazy) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	if lo >= hi {
		return true
	}
	c.EpochEnter()
	defer c.EpochExit()
	return core.GuardedScan(c, &l.guard, func(emit func(k core.Key, v core.Value)) {
		_, curr := l.search(lo)
		for ; curr.key < hi; curr = curr.next.Load() {
			if !curr.marked.Load() {
				emit(curr.key, curr.val)
			}
		}
	}, f)
}

// CursorNext implements core.Cursor: the same optimistic guard-validated
// walk as Scan, resuming at the token position and bounded to one page —
// the search phase re-parses to pos, so pagination never re-walks keys
// already delivered (beyond the list's own prefix traversal, which every
// point op pays too). Each page is one atomic sub-snapshot.
func (l *Lazy) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	if pos >= hi {
		return hi, true
	}
	c.EpochEnter()
	defer c.EpochExit()
	return core.GuardedPage(c, &l.guard, hi, max, func(emit func(k core.Key, v core.Value) bool) {
		_, curr := l.search(pos)
		for ; curr.key < hi; curr = curr.next.Load() {
			if !curr.marked.Load() && !emit(curr.key, curr.val) {
				return
			}
		}
	}, f)
}
