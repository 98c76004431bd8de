package skiplist

import (
	"sync/atomic"

	"csds/internal/core"
	"csds/internal/xrand"
)

// lfLink boxes (successor, mark) for one level of a lock-free skip-list
// node — the same AtomicMarkableReference idiom as the Harris list, since
// Go cannot tag pointer bits.
type lfLink struct {
	next   *lfNode
	marked bool
}

type lfNode struct {
	key      core.Key
	val      core.Value
	next     []atomic.Pointer[lfLink]
	topLevel int
}

func newLFNode(k core.Key, v core.Value, height int) *lfNode {
	return &lfNode{key: k, val: v, next: make([]atomic.Pointer[lfLink], height), topLevel: height - 1}
}

// LockFree is the lock-free skip list of Herlihy & Shavit ("The Art of
// Multiprocessor Programming", after Fraser's design): membership is
// decided by the bottom-level list, towers are spliced bottom-up with CAS
// and deleted top-down by marking every level. It is registered for the
// throughput comparisons alongside the blocking algorithms (the paper's
// remark 3: several lock-free algorithms match blocking performance).
type LockFree struct {
	head     *lfNode
	tail     *lfNode
	maxLevel int
	guard    core.ScanGuard // validates optimistic range scans
}

// NewLockFree builds an empty lock-free skip list sized for o.ExpectedSize.
func NewLockFree(o core.Options) *LockFree {
	ml := o.MaxLevel
	if ml <= 0 {
		ml = levelForSize(o.ExpectedSize)
	}
	if ml > maxMaxLevel {
		ml = maxMaxLevel
	}
	tail := newLFNode(core.KeyMax, 0, ml)
	head := newLFNode(core.KeyMin, 0, ml)
	for i := 0; i < ml; i++ {
		tail.next[i].Store(&lfLink{})
		head.next[i].Store(&lfLink{next: tail})
	}
	return &LockFree{head: head, tail: tail, maxLevel: ml}
}

func init() {
	core.Register(core.Info{
		Name: "skiplist/lockfree", Kind: "skiplist", Progress: "lock-free",
		New:  func(o core.Options) core.Set { return NewLockFree(o) },
		Desc: "lock-free skip list (Fraser / Herlihy–Shavit style)",
	})
}

// find locates the window for k on every level, snipping marked nodes.
// Returns whether k is present at the bottom level.
func (s *LockFree) find(c *core.Ctx, k core.Key, preds, succs []*lfNode) bool {
retry:
	for {
		pred := s.head
		for lvl := s.maxLevel - 1; lvl >= 0; lvl-- {
			predLink := pred.next[lvl].Load()
			curr := predLink.next
			for {
				currLink := curr.next[lvl].Load()
				for currLink.marked {
					if predLink.marked {
						// pred was removed while the descent stood on it
						// (marks go top-down, so the level above looked
						// clean). Snipping through this link would CAS it
						// to an unmarked one and resurrect pred; restart
						// and snip pred itself instead.
						continue retry
					}
					snip := &lfLink{next: currLink.next}
					if !pred.next[lvl].CompareAndSwap(predLink, snip) {
						continue retry
					}
					if lvl == 0 {
						// nil callback: a same-key insert can hide a
						// structure-resident link to curr (see pool.go),
						// so lfNodes fall back to the GC.
						c.Retire(curr, nil)
					}
					predLink = snip
					curr = currLink.next
					currLink = curr.next[lvl].Load()
				}
				if curr.key < k {
					pred = curr
					predLink = currLink
					curr = currLink.next
					continue
				}
				break
			}
			preds[lvl] = pred
			succs[lvl] = curr
		}
		return succs[0].key == k
	}
}

// Get implements core.Set: wait-free traversal without helping.
func (s *LockFree) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	c.EpochEnter()
	defer c.EpochExit()
	pred := s.head
	var curr *lfNode
	for lvl := s.maxLevel - 1; lvl >= 0; lvl-- {
		curr = pred.next[lvl].Load().next
		for {
			currLink := curr.next[lvl].Load()
			if currLink.marked {
				curr = currLink.next
				continue
			}
			if curr.key < k {
				pred = curr
				curr = currLink.next
				continue
			}
			break
		}
	}
	if curr.key == k {
		link := curr.next[0].Load()
		if !link.marked {
			return curr.val, true
		}
	}
	return 0, false
}

// Put implements core.Set.
func (s *LockFree) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	c.EpochEnter()
	defer c.EpochExit()
	topLevel := randomLevelLF(c.Rng, s.maxLevel) - 1
	var pa, sa [maxMaxLevel]*lfNode
	preds, succs := pa[:s.maxLevel], sa[:s.maxLevel]
	restarts := 0
	for {
		if s.find(c, k, preds, succs) {
			c.RecordRestarts(restarts)
			return false
		}
		n := newLFNode(k, v, topLevel+1)
		for lvl := 0; lvl <= topLevel; lvl++ {
			n.next[lvl].Store(&lfLink{next: succs[lvl]})
		}
		// Bottom level decides membership.
		predLink := preds[0].next[0].Load()
		if predLink.next != succs[0] || predLink.marked {
			restarts++
			continue
		}
		s.guard.BeginWrite(c.Stat())
		linked := preds[0].next[0].CompareAndSwap(predLink, &lfLink{next: n})
		s.guard.EndWrite()
		if !linked {
			restarts++
			continue
		}
		// Splice the upper levels best-effort.
		for lvl := 1; lvl <= topLevel; lvl++ {
			for {
				nLink := n.next[lvl].Load()
				if nLink.marked {
					break // node already being deleted; stop splicing
				}
				succ := succs[lvl]
				if nLink.next != succ {
					if !n.next[lvl].CompareAndSwap(nLink, &lfLink{next: succ}) {
						continue
					}
				}
				predLink := preds[lvl].next[lvl].Load()
				if predLink.next == succ && !predLink.marked &&
					preds[lvl].next[lvl].CompareAndSwap(predLink, &lfLink{next: n}) {
					break
				}
				// Window moved: recompute and retry this level.
				s.find(c, k, preds, succs)
				if succs[0] != n {
					// Node got deleted meanwhile; abandon upper splicing.
					lvl = topLevel
					break
				}
			}
		}
		c.RecordRestarts(restarts)
		return true
	}
}

// Remove implements core.Set: mark from the top level down; the bottom
// mark is the linearization point.
func (s *LockFree) Remove(c *core.Ctx, k core.Key) bool {
	c.EpochEnter()
	defer c.EpochExit()
	var pa, sa [maxMaxLevel]*lfNode
	preds, succs := pa[:s.maxLevel], sa[:s.maxLevel]
	restarts := 0
	if !s.find(c, k, preds, succs) {
		c.RecordRestarts(restarts)
		return false
	}
	victim := succs[0]
	// Mark upper levels (idempotent, helped by anyone).
	for lvl := victim.topLevel; lvl >= 1; lvl-- {
		for {
			link := victim.next[lvl].Load()
			if link.marked {
				break
			}
			if victim.next[lvl].CompareAndSwap(link, &lfLink{next: link.next, marked: true}) {
				break
			}
		}
	}
	// Bottom level: whoever marks it owns the removal.
	for {
		link := victim.next[0].Load()
		if link.marked {
			c.RecordRestarts(restarts)
			return false // someone else won
		}
		s.guard.BeginWrite(c.Stat())
		marked := victim.next[0].CompareAndSwap(link, &lfLink{next: link.next, marked: true})
		s.guard.EndWrite()
		if marked {
			// Physically clean up via find.
			s.find(c, k, preds, succs)
			c.RecordRestarts(restarts)
			return true
		}
		restarts++
	}
}

// Len implements core.Set (quiesced use).
func (s *LockFree) Len() int {
	n := 0
	for curr := s.head.next[0].Load().next; curr.key != core.KeyMax; {
		link := curr.next[0].Load()
		if !link.marked {
			n++
		}
		curr = link.next
	}
	return n
}

// Range implements core.Ranger: an in-order level-0 walk over unmarked
// nodes, quiesced-use like Len.
func (s *LockFree) Range(f func(k core.Key, v core.Value) bool) {
	for curr := s.head.next[0].Load().next; curr.key != core.KeyMax; {
		link := curr.next[0].Load()
		if !link.marked && !f(curr.key, curr.val) {
			return
		}
		curr = link.next
	}
}

// Scan implements core.Scanner: a non-helping descent to the first
// in-range node (skipping marked links, like Get), then an optimistic
// level-0 walk validated by the scan guard — only the bottom-level
// membership CASes open guard windows; upper-level splices and physical
// snips are invisible to the snapshot. Atomic per call.
func (s *LockFree) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	if lo >= hi {
		return true
	}
	c.EpochEnter()
	defer c.EpochExit()
	return core.GuardedScan(c, &s.guard, func(emit func(k core.Key, v core.Value)) {
		pred := s.head
		var curr *lfNode
		for lvl := s.maxLevel - 1; lvl >= 0; lvl-- {
			curr = pred.next[lvl].Load().next
			for {
				currLink := curr.next[lvl].Load()
				if currLink.marked {
					curr = currLink.next
					continue
				}
				if curr.key < lo {
					pred = curr
					curr = currLink.next
					continue
				}
				break
			}
		}
		for curr.key < hi {
			link := curr.next[0].Load()
			if !link.marked {
				emit(curr.key, curr.val)
			}
			curr = link.next
		}
	}, f)
}

// CursorNext implements core.Cursor: the non-helping marked-skipping
// descent lands on the token position, then a bounded guard-validated
// level-0 walk collects one page (atomic, like Scan).
func (s *LockFree) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	if pos >= hi {
		return hi, true
	}
	c.EpochEnter()
	defer c.EpochExit()
	return core.GuardedPage(c, &s.guard, hi, max, func(emit func(k core.Key, v core.Value) bool) {
		pred := s.head
		var curr *lfNode
		for lvl := s.maxLevel - 1; lvl >= 0; lvl-- {
			curr = pred.next[lvl].Load().next
			for {
				currLink := curr.next[lvl].Load()
				if currLink.marked {
					curr = currLink.next
					continue
				}
				if curr.key < pos {
					pred = curr
					curr = currLink.next
					continue
				}
				break
			}
		}
		for curr.key < hi {
			link := curr.next[0].Load()
			if !link.marked && !emit(curr.key, curr.val) {
				return
			}
			curr = link.next
		}
	}, f)
}

// randomLevelLF mirrors randomLevel; separate name keeps the call sites
// greppable per algorithm.
func randomLevelLF(rng *xrand.Rng, max int) int { return randomLevel(rng, max) }
