package list

import (
	"sync/atomic"

	"csds/internal/core"
	"csds/internal/locks"
)

// pughNode carries an atomic next (optimistic, lock-free traversal) and a
// deletion flag, like the lazy list, but updates reposition under locks
// instead of restarting from the head.
type pughNode struct {
	key    core.Key
	val    core.Value
	marked atomic.Bool
	next   atomic.Pointer[pughNode]
	lock   locks.TAS
}

// Pugh is a per-node-lock list in the style of Pugh's concurrent
// maintenance technical report (1990), as catalogued in ASCYLIB: the
// traversal is synchronization-free; an update locks its predecessor and
// then *slides forward under the lock* if new nodes were inserted in the
// meantime, rather than restarting the whole operation. Restarts happen
// only when the locked predecessor itself got deleted.
type Pugh struct {
	head  *pughNode
	guard core.ScanGuard // validates optimistic range scans
}

// NewPugh builds an empty Pugh list.
func NewPugh(o core.Options) *Pugh {
	tail := &pughNode{key: core.KeyMax}
	head := &pughNode{key: core.KeyMin}
	head.next.Store(tail)
	return &Pugh{head: head}
}

func init() {
	core.Register(core.Info{
		Name: "list/pugh", Kind: "list", Progress: "blocking",
		New:  func(o core.Options) core.Set { return NewPugh(o) },
		Desc: "per-node-lock list with forward repositioning (Pugh 1990 style)",
	})
}

func (l *Pugh) search(k core.Key) *pughNode {
	pred := l.head
	curr := pred.next.Load()
	for curr.key < k {
		pred = curr
		curr = curr.next.Load()
	}
	return pred
}

// lockPred locks pred and repositions it forward until pred.key < k <=
// pred.next.key still holds under the lock. Returns nil if pred was deleted
// (caller restarts).
func (l *Pugh) lockPred(c *core.Ctx, pred *pughNode, k core.Key) *pughNode {
	pred.lock.Acquire(c.Stat())
	for {
		if pred.marked.Load() {
			pred.lock.Release()
			return nil
		}
		next := pred.next.Load()
		if next.key >= k {
			return pred
		}
		// Slide forward under hand-over-hand locking.
		next.lock.Acquire(c.Stat())
		pred.lock.Release()
		pred = next
	}
}

// Get implements core.Set: identical read path to the lazy list. It
// judges the node its own walk stopped at — re-reading the predecessor's
// next after the walk (as search's callers do under a lock) can land on
// a smaller key inserted in between and report a resident k absent.
func (l *Pugh) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	c.EpochEnter()
	curr := l.head.next.Load()
	for curr.key < k {
		curr = curr.next.Load()
	}
	v, ok := curr.val, curr.key == k && !curr.marked.Load()
	c.EpochExit()
	return v, ok
}

// Put implements core.Set.
func (l *Pugh) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	c.EpochEnter()
	defer c.EpochExit()
	restarts := 0
	for {
		pred := l.lockPred(c, l.search(k), k)
		if pred == nil {
			restarts++
			continue
		}
		curr := pred.next.Load()
		if curr.key == k {
			// Present unless it is being removed right now; the remover
			// holds pred's lock while unlinking, and we hold it, so a
			// marked successor here is impossible — but curr may have been
			// marked through a *different* predecessor window only if it
			// were unlinked already, which also can't happen while we hold
			// pred. Treat as present.
			pred.lock.Release()
			c.RecordRestarts(restarts)
			return false
		}
		n := newPughNode(c, k, v)
		n.next.Store(curr)
		c.InCS()
		l.guard.BeginWrite(c.Stat())
		pred.next.Store(n)
		l.guard.EndWrite()
		pred.lock.Release()
		c.RecordRestarts(restarts)
		return true
	}
}

// Remove implements core.Set.
func (l *Pugh) Remove(c *core.Ctx, k core.Key) bool {
	c.EpochEnter()
	defer c.EpochExit()
	restarts := 0
	for {
		pred := l.lockPred(c, l.search(k), k)
		if pred == nil {
			restarts++
			continue
		}
		curr := pred.next.Load()
		if curr.key != k {
			pred.lock.Release()
			c.RecordRestarts(restarts)
			return false
		}
		curr.lock.Acquire(c.Stat())
		c.InCS()
		l.guard.BeginWrite(c.Stat())
		curr.marked.Store(true)
		pred.next.Store(curr.next.Load())
		l.guard.EndWrite()
		curr.lock.Release()
		pred.lock.Release()
		c.Retire(curr, reclaimPughNode)
		c.RecordRestarts(restarts)
		return true
	}
}

// Len implements core.Set (quiesced use).
func (l *Pugh) Len() int {
	n := 0
	for curr := l.head.next.Load(); curr.key != core.KeyMax; curr = curr.next.Load() {
		if !curr.marked.Load() {
			n++
		}
	}
	return n
}

// Range implements core.Ranger: an in-order walk over unmarked nodes,
// quiesced-use like Len.
func (l *Pugh) Range(f func(k core.Key, v core.Value) bool) {
	for curr := l.head.next.Load(); curr.key != core.KeyMax; curr = curr.next.Load() {
		if !curr.marked.Load() && !f(curr.key, curr.val) {
			return
		}
	}
}

// Scan implements core.Scanner: the lazy list's optimistic validated
// protocol (the read path is identical), atomic per call.
func (l *Pugh) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	if lo >= hi {
		return true
	}
	c.EpochEnter()
	defer c.EpochExit()
	return core.GuardedScan(c, &l.guard, func(emit func(k core.Key, v core.Value)) {
		curr := l.search(lo).next.Load()
		for ; curr.key < hi; curr = curr.next.Load() {
			if !curr.marked.Load() {
				emit(curr.key, curr.val)
			}
		}
	}, f)
}

// CursorNext implements core.Cursor: the lazy list's bounded page
// protocol over this list's own search phase (see Lazy.CursorNext).
func (l *Pugh) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	if pos >= hi {
		return hi, true
	}
	c.EpochEnter()
	defer c.EpochExit()
	return core.GuardedPage(c, &l.guard, hi, max, func(emit func(k core.Key, v core.Value) bool) {
		curr := l.search(pos).next.Load()
		for ; curr.key < hi; curr = curr.next.Load() {
			if !curr.marked.Load() && !emit(curr.key, curr.val) {
				return
			}
		}
	}, f)
}
