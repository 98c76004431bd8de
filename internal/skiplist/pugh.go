package skiplist

import (
	"sync/atomic"

	"csds/internal/core"
	"csds/internal/locks"
)

// pNode is a Pugh skip-list node. next is the tower, allocated in the
// same object as the node (core.NewTower); its length is the node's
// height.
type pNode struct {
	key    core.Key
	val    core.Value
	next   []atomic.Pointer[pNode]
	marked atomic.Bool
	lock   locks.TAS
}

func newPNode(k core.Key, v core.Value, height int) *pNode {
	n, next := core.NewTower[pNode](height)
	n.key, n.val, n.next = k, v, next
	return n
}

// topLevel is the index of the highest level in the node's tower.
func (n *pNode) topLevel() int { return len(n.next) - 1 }

// Pugh is a per-level-lock skip list in the spirit of Pugh's "Concurrent
// Maintenance of Skip Lists" (1990): updates lock one predecessor at a
// time per level and *slide forward under the lock* instead of restarting
// the whole operation, so there are no full restarts in the common path.
//
// Simplification relative to Pugh's technical report (documented in
// DESIGN.md): removal marks the node under its own lock (membership is
// decided at that instant) and then unlinks its tower levels best-effort;
// any marked node a later update encounters behind a locked predecessor is
// helped out of that level. Tower levels of a removed node may therefore
// linger briefly, which affects neither correctness (navigation is by key,
// membership is level-0 presence plus the mark) nor the metrics the paper
// reports.
type Pugh struct {
	head     *pNode
	maxLevel int
	guard    core.ScanGuard // validates optimistic range scans
}

// NewPugh builds an empty Pugh skip list sized for o.ExpectedSize.
func NewPugh(o core.Options) *Pugh {
	ml := o.MaxLevel
	if ml <= 0 {
		ml = levelForSize(o.ExpectedSize)
	}
	if ml > maxMaxLevel {
		ml = maxMaxLevel
	}
	tail := newPNode(core.KeyMax, 0, ml)
	head := newPNode(core.KeyMin, 0, ml)
	for i := 0; i < ml; i++ {
		head.next[i].Store(tail)
	}
	return &Pugh{head: head, maxLevel: ml}
}

func init() {
	core.Register(core.Info{
		Name: "skiplist/pugh", Kind: "skiplist", Progress: "blocking",
		New:  func(o core.Options) core.Set { return NewPugh(o) },
		Desc: "per-level-lock skip list with forward repositioning (Pugh 1990 style)",
	})
}

// find fills preds with the last node whose key < k at every level.
func (s *Pugh) find(k core.Key, preds []*pNode) *pNode {
	pred := s.head
	for lvl := s.maxLevel - 1; lvl >= 0; lvl-- {
		curr := pred.next[lvl].Load()
		for curr.key < k {
			pred = curr
			curr = pred.next[lvl].Load()
		}
		preds[lvl] = pred
	}
	return preds[0].next[0].Load()
}

// Get implements core.Set.
func (s *Pugh) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	c.EpochEnter()
	defer c.EpochExit()
	pred := s.head
	for lvl := s.maxLevel - 1; lvl >= 0; lvl-- {
		curr := pred.next[lvl].Load()
		for curr.key < k {
			pred = curr
			curr = pred.next[lvl].Load()
		}
		if curr.key == k && !curr.marked.Load() {
			return curr.val, true
		}
	}
	return 0, false
}

// lockLevel locks the predecessor for key k at level lvl, sliding forward
// under the lock and unlinking any marked nodes it passes (helping).
// Returns the locked predecessor, whose successor at lvl has key >= k and
// is unmarked — or nil if the predecessor itself turned out to be marked
// (detached), in which case the caller must restart from the head: linking
// through a detached node would lose the update.
func (s *Pugh) lockLevel(c *core.Ctx, pred *pNode, k core.Key, lvl int) *pNode {
	pred.lock.Acquire(c.Stat())
	for {
		if pred.marked.Load() {
			pred.lock.Release()
			return nil
		}
		curr := pred.next[lvl].Load()
		if curr.marked.Load() && curr.key != core.KeyMax {
			// Help unlink a logically deleted node from this level.
			pred.next[lvl].Store(curr.next[lvl].Load())
			continue
		}
		if curr.key < k {
			// Slide forward hand-over-hand (ascending key order only, so
			// no deadlock is possible).
			curr.lock.Acquire(c.Stat())
			pred.lock.Release()
			pred = curr
			continue
		}
		return pred
	}
}

// lockLevelFrom retries lockLevel from the head until it sticks.
func (s *Pugh) lockLevelFrom(c *core.Ctx, start *pNode, k core.Key, lvl int, restarts *int) *pNode {
	for {
		if p := s.lockLevel(c, start, k, lvl); p != nil {
			return p
		}
		*restarts++
		start = s.head // head is never marked
	}
}

// Put implements core.Set.
func (s *Pugh) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	c.EpochEnter()
	defer c.EpochExit()
	var pa [maxMaxLevel]*pNode
	preds := pa[:s.maxLevel]
	topLevel := randomLevel(c.Rng, s.maxLevel) - 1
	s.find(k, preds)
	restarts := 0

	// Level 0 decides membership.
	pred := s.lockLevelFrom(c, preds[0], k, 0, &restarts)
	curr := pred.next[0].Load()
	if curr.key == k {
		pred.lock.Release()
		c.RecordRestarts(restarts)
		return false
	}
	n := newPNodePooled(c, k, v, topLevel+1)
	n.next[0].Store(curr)
	c.InCS()
	s.guard.BeginWrite(c.Stat())
	pred.next[0].Store(n)
	s.guard.EndWrite()
	pred.lock.Release()

	// Upper levels are linked one at a time; abandon if the node got
	// removed in the meantime.
	for lvl := 1; lvl <= topLevel; lvl++ {
		if n.marked.Load() {
			break
		}
		p := s.lockLevelFrom(c, preds[lvl], k, lvl, &restarts)
		if n.marked.Load() {
			p.lock.Release()
			break
		}
		succ := p.next[lvl].Load()
		if succ == n {
			p.lock.Release()
			continue // already linked here (defensive; should not happen)
		}
		n.next[lvl].Store(succ)
		p.next[lvl].Store(n)
		p.lock.Release()
	}
	c.RecordRestarts(restarts)
	return true
}

// Remove implements core.Set.
func (s *Pugh) Remove(c *core.Ctx, k core.Key) bool {
	c.EpochEnter()
	defer c.EpochExit()
	var pa [maxMaxLevel]*pNode
	preds := pa[:s.maxLevel]
	victim := s.find(k, preds)
	restarts := 0
	if victim.key != k {
		c.RecordRestarts(0)
		return false
	}
	// Decide membership atomically under the victim's lock.
	victim.lock.Acquire(c.Stat())
	if victim.marked.Load() {
		victim.lock.Release()
		c.RecordRestarts(0)
		return false
	}
	c.InCS()
	s.guard.BeginWrite(c.Stat())
	victim.marked.Store(true)
	s.guard.EndWrite()
	victim.lock.Release()

	// Best-effort unlink, top level first; lockLevel's helping removes the
	// node from each level as a side effect of the slide.
	for lvl := victim.topLevel(); lvl >= 0; lvl-- {
		p := s.lockLevelFrom(c, preds[lvl], k, lvl, &restarts)
		p.lock.Release()
	}
	c.Retire(victim, reclaimPNode)
	c.RecordRestarts(restarts)
	return true
}

// Len implements core.Set (quiesced use): level-0 walk.
func (s *Pugh) Len() int {
	n := 0
	for curr := s.head.next[0].Load(); curr.key != core.KeyMax; curr = curr.next[0].Load() {
		if !curr.marked.Load() {
			n++
		}
	}
	return n
}

// Range implements core.Ranger: an in-order level-0 walk over unmarked
// nodes, quiesced-use like Len.
func (s *Pugh) Range(f func(k core.Key, v core.Value) bool) {
	for curr := s.head.next[0].Load(); curr.key != core.KeyMax; curr = curr.next[0].Load() {
		if !curr.marked.Load() && !f(curr.key, curr.val) {
			return
		}
	}
}

// Scan implements core.Scanner: a read-only tower descent to the first
// in-range node, then an optimistic level-0 walk validated by the scan
// guard; atomic per call.
func (s *Pugh) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	if lo >= hi {
		return true
	}
	c.EpochEnter()
	defer c.EpochExit()
	return core.GuardedScan(c, &s.guard, func(emit func(k core.Key, v core.Value)) {
		pred := s.head
		for lvl := s.maxLevel - 1; lvl >= 0; lvl-- {
			curr := pred.next[lvl].Load()
			for curr.key < lo {
				pred = curr
				curr = pred.next[lvl].Load()
			}
		}
		for curr := pred.next[0].Load(); curr.key < hi; curr = curr.next[0].Load() {
			if !curr.marked.Load() {
				emit(curr.key, curr.val)
			}
		}
	}, f)
}

// CursorNext implements core.Cursor: O(log n) descent to the token
// position, then a bounded guard-validated level-0 page (see
// Herlihy.CursorNext; the protocols are identical).
func (s *Pugh) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	if pos >= hi {
		return hi, true
	}
	c.EpochEnter()
	defer c.EpochExit()
	return core.GuardedPage(c, &s.guard, hi, max, func(emit func(k core.Key, v core.Value) bool) {
		pred := s.head
		for lvl := s.maxLevel - 1; lvl >= 0; lvl-- {
			curr := pred.next[lvl].Load()
			for curr.key < pos {
				pred = curr
				curr = pred.next[lvl].Load()
			}
		}
		for curr := pred.next[0].Load(); curr.key < hi; curr = curr.next[0].Load() {
			if !curr.marked.Load() && !emit(curr.key, curr.val) {
				return
			}
		}
	}, f)
}
