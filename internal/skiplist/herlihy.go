// Package skiplist implements the skip-list set algorithms of the paper's
// Table 1: the featured Herlihy–Lev–Luchangco–Shavit optimistic skip list
// and a Pugh-style per-level-lock skip list.
package skiplist

import (
	"math/bits"
	"runtime"
	"sync/atomic"

	"csds/internal/core"
	"csds/internal/htm"
	"csds/internal/locks"
	"csds/internal/xrand"
)

// maxMaxLevel caps tower height; 2^32 expected elements is far beyond any
// workload here.
const maxMaxLevel = 32

// levelForSize picks a sensible tower bound for an expected size.
func levelForSize(n int) int {
	if n < 4 {
		n = 4
	}
	l := bits.Len(uint(n)) // ~log2(n)+1
	if l < 4 {
		l = 4
	}
	if l > maxMaxLevel {
		l = maxMaxLevel
	}
	return l
}

// randomLevel draws a geometric(1/2) tower height in [1, max].
func randomLevel(rng *xrand.Rng, max int) int {
	// Count trailing ones of a random word: P(level = l) = 2^-l.
	lvl := bits.TrailingZeros64(rng.Next()) + 1
	if lvl > max {
		lvl = max
	}
	return lvl
}

// hNode is an optimistic skip-list node. fullyLinked flips once the tower
// is completely spliced in; marked is the logical-deletion flag. next is
// the tower, allocated in the same object as the node (core.NewTower);
// its length is the node's height. A height-1 node is exactly 64 bytes,
// tower included (TestTowerLayout).
type hNode struct {
	key         core.Key
	val         core.Value
	next        []atomic.Pointer[hNode]
	marked      atomic.Bool
	fullyLinked atomic.Bool
	lock        locks.TAS
}

func newHNode(k core.Key, v core.Value, height int) *hNode {
	n, next := core.NewTower[hNode](height)
	n.key, n.val, n.next = k, v, next
	return n
}

// topLevel is the index of the highest level in the node's tower.
func (n *hNode) topLevel() int { return len(n.next) - 1 }

// Herlihy is the optimistic lazy skip list (Herlihy, Lev, Luchangco,
// Shavit, SIROCCO 2007): wait-free contains; updates lock only the
// predecessor towers of the modified node and validate optimistically.
// This is the paper's featured skip list.
type Herlihy struct {
	head     *hNode
	tail     *hNode
	maxLevel int
	region   htm.Region
	guard    core.ScanGuard // validates optimistic range scans
}

// NewHerlihy builds an empty skip list sized for o.ExpectedSize.
func NewHerlihy(o core.Options) *Herlihy {
	ml := o.MaxLevel
	if ml <= 0 {
		ml = levelForSize(o.ExpectedSize)
	}
	if ml > maxMaxLevel {
		ml = maxMaxLevel
	}
	tail := newHNode(core.KeyMax, 0, ml)
	head := newHNode(core.KeyMin, 0, ml)
	for i := 0; i < ml; i++ {
		head.next[i].Store(tail)
	}
	tail.fullyLinked.Store(true)
	head.fullyLinked.Store(true)
	return &Herlihy{head: head, tail: tail, maxLevel: ml, region: o.Region()}
}

func init() {
	core.Register(core.Info{
		Name: "skiplist/herlihy", Kind: "skiplist", Progress: "blocking", Featured: true,
		New:  func(o core.Options) core.Set { return NewHerlihy(o) },
		Desc: "optimistic lazy skip list (Herlihy et al. 2007)",
	})
}

// descent is one search's result for a key k: on every level, the last
// node before k and the first node at or after it, and the highest level
// at which k was found (-1: absent).
type descent struct {
	preds, succs [maxMaxLevel]*hNode
	found        int
}

// find fills d for key k. Pure reading: the parse phase.
func (s *Herlihy) find(k core.Key, d *descent) {
	d.found = -1
	pred := s.head
	for lvl := s.maxLevel - 1; lvl >= 0; lvl-- {
		curr := pred.next[lvl].Load()
		for curr.key < k {
			pred = curr
			curr = pred.next[lvl].Load()
		}
		if d.found == -1 && curr.key == k {
			d.found = lvl
		}
		d.preds[lvl] = pred
		d.succs[lvl] = curr
	}
}

// Get implements core.Set: no stores, no restarts.
func (s *Herlihy) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	c.EpochEnter()
	defer c.EpochExit()
	pred := s.head
	var curr *hNode
	for lvl := s.maxLevel - 1; lvl >= 0; lvl-- {
		curr = pred.next[lvl].Load()
		for curr.key < k {
			pred = curr
			curr = pred.next[lvl].Load()
		}
		if curr.key == k {
			if curr.fullyLinked.Load() && !curr.marked.Load() {
				return curr.val, true
			}
			return 0, false
		}
	}
	return 0, false
}

// lockSet tracks the distinct predecessor locks an update holds.
type lockSet struct {
	nodes [maxMaxLevel + 1]*hNode
	n     int
}

func (ls *lockSet) acquire(c *core.Ctx, nd *hNode) {
	if ls.n > 0 && ls.nodes[ls.n-1] == nd {
		return // same pred as previous level: already held
	}
	nd.lock.Acquire(c.Stat())
	ls.nodes[ls.n] = nd
	ls.n++
}

func (ls *lockSet) releaseAll() {
	for i := ls.n - 1; i >= 0; i-- {
		ls.nodes[i].lock.Release()
		ls.nodes[i] = nil
	}
	ls.n = 0
}

// Put implements core.Set.
func (s *Herlihy) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	c.EpochEnter()
	defer c.EpochExit()
	return s.put(c, k, v, nil)
}

// put is Put inside the caller's epoch bracket. A non-nil hint is a
// search for k already taken inside the same call (a batch's interleaved
// descent, batch.go); it stands in for the first attempt's find, and
// every later attempt searches afresh. Locking, validation, restart
// accounting, the critical-section hook and retirement are Put's own, so
// a hint gone stale — a node linked between a pred and its succ, a pred
// or the found node marked — fails the same checks a stale find would
// and costs exactly one restart.
//
// Consistency is Put's. A false result (k found, unmarked) linearizes at
// the search's reads, as in the lazy skip list, which needs only that
// the search ran inside the call; a true result linearizes at the locked
// level-0 link. A later duplicate in one batch carries a hint taken
// before the earlier one inserted, so it fails validation at level 0,
// restarts, finds the new node and returns false — a looped Put's
// answer. Elided instances keep their per-key path and ignore the hint.
func (s *Herlihy) put(c *core.Ctx, k core.Key, v core.Value, hint *descent) bool {
	if s.region.Attempts > 0 {
		return s.putElided(c, k, v)
	}
	var own descent
	d := &own
	if hint != nil {
		d = hint
	}
	preds, succs := &d.preds, &d.succs
	topLevel := randomLevel(c.Rng, s.maxLevel) - 1
	restarts := 0
	for {
		if hint == nil || restarts > 0 {
			s.find(k, d)
		}
		if found := d.found; found != -1 {
			n := succs[found]
			if !n.marked.Load() {
				// Wait for a concurrent inserter to finish splicing; the
				// key is (about to be) present.
				for !n.fullyLinked.Load() {
					runtime.Gosched()
				}
				c.RecordRestarts(restarts)
				return false
			}
			// Marked: a removal is in progress; retry once it unlinks.
			// Yield first, as every spin in this repository does: the
			// remover may be descheduled between its mark and its
			// unlink, and a put that re-searches without yielding can
			// hold the very CPU it needs (the locks package rule).
			restarts++
			runtime.Gosched()
			continue
		}
		var ls lockSet
		valid := true
		for lvl := 0; lvl <= topLevel; lvl++ {
			ls.acquire(c, preds[lvl])
			if preds[lvl].marked.Load() || succs[lvl].marked.Load() || preds[lvl].next[lvl].Load() != succs[lvl] {
				valid = false
				break
			}
		}
		if !valid {
			ls.releaseAll()
			restarts++
			continue
		}
		n := newHNodePooled(c, k, v, topLevel+1)
		for lvl := 0; lvl <= topLevel; lvl++ {
			n.next[lvl].Store(succs[lvl])
		}
		c.InCS()
		s.guard.BeginWrite(c.Stat())
		for lvl := 0; lvl <= topLevel; lvl++ {
			preds[lvl].next[lvl].Store(n)
		}
		n.fullyLinked.Store(true)
		s.guard.EndWrite()
		ls.releaseAll()
		c.RecordRestarts(restarts)
		return true
	}
}

func (s *Herlihy) putElided(c *core.Ctx, k core.Key, v core.Value) bool {
	var d descent
	preds, succs := &d.preds, &d.succs
	topLevel := randomLevel(c.Rng, s.maxLevel) - 1
	restarts := 0
	for {
		s.find(k, &d)
		if found := d.found; found != -1 {
			n := succs[found]
			if !n.marked.Load() {
				for !n.fullyLinked.Load() {
					runtime.Gosched()
				}
				c.RecordRestarts(restarts)
				return false
			}
			restarts++
			runtime.Gosched() // marked: yield to the remover, as put does
			continue
		}
		n := newHNodePooled(c, k, v, topLevel+1)
		st := s.region.Run(c.Stat(), c.Injector(), func(a *htm.Acq) htm.Status {
			var last *hNode
			for lvl := 0; lvl <= topLevel; lvl++ {
				if preds[lvl] != last {
					if !a.Lock(&preds[lvl].lock) {
						return a.AbortStatus()
					}
					last = preds[lvl]
				}
				if preds[lvl].marked.Load() || succs[lvl].marked.Load() || preds[lvl].next[lvl].Load() != succs[lvl] {
					return htm.ValidateFail
				}
			}
			if !a.Commit() {
				return a.AbortStatus()
			}
			for lvl := 0; lvl <= topLevel; lvl++ {
				n.next[lvl].Store(succs[lvl])
			}
			s.guard.BeginWrite(c.Stat())
			for lvl := 0; lvl <= topLevel; lvl++ {
				preds[lvl].next[lvl].Store(n)
			}
			n.fullyLinked.Store(true)
			s.guard.EndWrite()
			return htm.Committed
		})
		if st == htm.Committed {
			c.RecordRestarts(restarts)
			return true
		}
		restarts++
	}
}

// okToDelete: fully linked, found at its own top level, unmarked.
func okToDelete(n *hNode, foundLvl int) bool {
	return n.fullyLinked.Load() && n.topLevel() == foundLvl && !n.marked.Load()
}

// Remove implements core.Set.
func (s *Herlihy) Remove(c *core.Ctx, k core.Key) bool {
	c.EpochEnter()
	defer c.EpochExit()
	return s.remove(c, k, nil)
}

// remove is Remove inside the caller's epoch bracket, with put's hint
// contract: a non-nil hint, taken inside the same call, replaces the
// first attempt's find, and a stale one costs exactly one restart — a
// pred marked or no longer linked to the victim fails validation, and a
// victim found already marked sends the hint back for a fresh search
// (where a fresh find would answer false at once, the hint may be older
// than a remove-then-reinsert of k).
//
// Consistency is Remove's. A false result (k absent, or its node not
// okToDelete) linearizes at the search's reads, the lazy skip list's
// argument, which needs only that the search ran inside the call; a
// true result linearizes at the locked mark. A later duplicate in one
// batch finds its victim marked by the earlier one, searches afresh, and
// returns false — a looped Remove's answer. Elided instances keep their
// per-key path and ignore the hint.
func (s *Herlihy) remove(c *core.Ctx, k core.Key, hint *descent) bool {
	if s.region.Attempts > 0 {
		return s.removeElided(c, k)
	}
	var own descent
	d := &own
	if hint != nil {
		d = hint
	}
	preds := &d.preds
	var victim *hNode
	isMarked := false
	topLevel := -1
	restarts := 0
	for {
		hinted := hint != nil && restarts == 0
		if !hinted {
			s.find(k, d)
		}
		found := d.found
		if found != -1 {
			victim = d.succs[found]
			if hinted && victim.marked.Load() {
				restarts++
				continue
			}
		}
		if isMarked || (found != -1 && okToDelete(victim, found)) {
			if !isMarked {
				topLevel = victim.topLevel()
				victim.lock.Acquire(c.Stat())
				if victim.marked.Load() {
					victim.lock.Release()
					c.RecordRestarts(restarts)
					return false
				}
				s.guard.BeginWrite(c.Stat())
				victim.marked.Store(true)
				s.guard.EndWrite()
				isMarked = true
			}
			var ls lockSet
			valid := true
			for lvl := 0; lvl <= topLevel; lvl++ {
				ls.acquire(c, preds[lvl])
				if preds[lvl].marked.Load() || preds[lvl].next[lvl].Load() != victim {
					valid = false
					break
				}
			}
			if !valid {
				ls.releaseAll()
				restarts++
				continue
			}
			c.InCS()
			for lvl := topLevel; lvl >= 0; lvl-- {
				preds[lvl].next[lvl].Store(victim.next[lvl].Load())
			}
			victim.lock.Release()
			ls.releaseAll()
			c.Retire(victim, reclaimHNode)
			c.RecordRestarts(restarts)
			return true
		}
		c.RecordRestarts(restarts)
		return false
	}
}

func (s *Herlihy) removeElided(c *core.Ctx, k core.Key) bool {
	var d descent
	preds := &d.preds
	restarts := 0
	for {
		s.find(k, &d)
		found := d.found
		if found == -1 {
			c.RecordRestarts(restarts)
			return false
		}
		victim := d.succs[found]
		if !okToDelete(victim, found) {
			c.RecordRestarts(restarts)
			return false
		}
		topLevel := victim.topLevel()
		var removed bool
		st := s.region.Run(c.Stat(), c.Injector(), func(a *htm.Acq) htm.Status {
			if !a.Lock(&victim.lock) {
				return a.AbortStatus()
			}
			if victim.marked.Load() {
				removed = false
				return htm.Committed
			}
			var last *hNode
			for lvl := 0; lvl <= topLevel; lvl++ {
				if preds[lvl] != last {
					if !a.Lock(&preds[lvl].lock) {
						return a.AbortStatus()
					}
					last = preds[lvl]
				}
				if preds[lvl].marked.Load() || preds[lvl].next[lvl].Load() != victim {
					return htm.ValidateFail
				}
			}
			if !a.Commit() {
				return a.AbortStatus()
			}
			s.guard.BeginWrite(c.Stat())
			victim.marked.Store(true)
			for lvl := topLevel; lvl >= 0; lvl-- {
				preds[lvl].next[lvl].Store(victim.next[lvl].Load())
			}
			s.guard.EndWrite()
			removed = true
			return htm.Committed
		})
		if st == htm.Committed {
			if removed {
				c.Retire(victim, reclaimHNode)
			}
			c.RecordRestarts(restarts)
			return removed
		}
		restarts++
	}
}

// Len implements core.Set (quiesced use): walks level 0.
func (s *Herlihy) Len() int {
	n := 0
	for curr := s.head.next[0].Load(); curr.key != core.KeyMax; curr = curr.next[0].Load() {
		if !curr.marked.Load() && curr.fullyLinked.Load() {
			n++
		}
	}
	return n
}

// Range implements core.Ranger: an in-order level-0 walk, quiesced-use
// like Len.
func (s *Herlihy) Range(f func(k core.Key, v core.Value) bool) {
	for curr := s.head.next[0].Load(); curr.key != core.KeyMax; curr = curr.next[0].Load() {
		if !curr.marked.Load() && curr.fullyLinked.Load() && !f(curr.key, curr.val) {
			return
		}
	}
}

// Scan implements core.Scanner: a read-only tower descent to the first
// in-range node, then an optimistic level-0 walk validated by the scan
// guard (see core.GuardedScan); atomic per call.
func (s *Herlihy) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
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
			if !curr.marked.Load() && curr.fullyLinked.Load() {
				emit(curr.key, curr.val)
			}
		}
	}, f)
}

// CursorNext implements core.Cursor: the read-only tower descent lands
// on the token position in O(log n) — resuming a page costs what a point
// read costs, not a re-walk of the delivered prefix — then a bounded
// guard-validated level-0 walk collects one page (atomic, like Scan).
func (s *Herlihy) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
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
			if !curr.marked.Load() && curr.fullyLinked.Load() && !emit(curr.key, curr.val) {
				return
			}
		}
	}, f)
}
