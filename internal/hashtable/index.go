// The ordered key index of the monolithic hash tables: a compact
// lock-free skip list shadowing the table's live mappings, so cursor
// pages and range scans run in O(log n + page) / O(log n + range)
// instead of the O(table) collect-and-sort the tables paid before —
// a hash walk has no resumable order of its own, but its shadow does.
//
// Consistency protocol: the index is mutated only inside the owning
// table's ScanGuard write brackets, in the same bracket as the bucket
// mutation it shadows. Readers (the table's guarded scan/page collects)
// traverse the index with atomic loads only and validate against that
// same guard, so a validated collect is guaranteed to have seen a state
// in which bucket and index agree — pages and scans stay individually
// linearizable against the table's point operations, exactly as before.
// Point reads never touch the index.
//
// The skip list itself is the Fraser / Herlihy–Shavit design already
// used by skiplist/lockfree (bottom level decides membership, towers
// spliced bottom-up with CAS, deletion marks top-down), stripped to the
// index role: no stats, no locks, and a private level generator — index
// maintenance must never pollute the paper's fine-grained
// lock-wait/restart metrics, and its writers (concurrent bucket owners)
// must never serialize on it. Unlinked nodes are retired through the
// caller's epoch record at the bottom-level snip (every table operation
// that touches the index runs inside an epoch bracket), with a nil
// reclaim callback: a same-key insert can hide a structure-resident
// upper-level link to a marked victim (see pool.go), so ixNodes fall to
// the GC rather than a free-list.
package hashtable

import (
	"math/bits"
	"sync/atomic"

	"csds/internal/core"
)

// ixLink boxes (successor, mark) for one level of an index node — the
// AtomicMarkableReference idiom, since Go cannot tag pointer bits.
type ixLink struct {
	next   *ixNode
	marked bool
}

type ixNode struct {
	key      core.Key
	val      core.Value
	next     []atomic.Pointer[ixLink]
	topLevel int
}

func newIxNode(k core.Key, v core.Value, height int) *ixNode {
	return &ixNode{key: k, val: v, next: make([]atomic.Pointer[ixLink], height), topLevel: height - 1}
}

// ixMaxMaxLevel caps tower height (2^32 expected elements is far beyond
// any table here).
const ixMaxMaxLevel = 32

// ixLevelForSize picks the tower bound for an expected element count.
func ixLevelForSize(n int) int {
	if n < 4 {
		n = 4
	}
	l := bits.Len(uint(n))
	if l < 4 {
		l = 4
	}
	if l > ixMaxMaxLevel {
		l = ixMaxMaxLevel
	}
	return l
}

// keyIndex is the per-table ordered shadow. The zero value is not ready;
// use newKeyIndex.
type keyIndex struct {
	head     *ixNode
	tail     *ixNode
	maxLevel int
	levelSrc atomic.Uint64 // private level PRNG state (SplitMix64 stream)
}

// indexSize resolves the element-count hint the index is sized by: the
// expected size when given, else the bucket count (which bucketCount
// derived from the size at load factor 1). Sizing by buckets alone
// would under-level the shadow when a small explicit Buckets holds many
// keys — degrading the O(log n) seek the index exists to provide.
func indexSize(o core.Options, buckets int) int {
	if o.ExpectedSize > buckets {
		return o.ExpectedSize
	}
	return buckets
}

// newKeyIndex builds an empty index sized for about n elements.
func newKeyIndex(n int) *keyIndex {
	ml := ixLevelForSize(n)
	tail := newIxNode(core.KeyMax, 0, ml)
	head := newIxNode(core.KeyMin, 0, ml)
	for i := 0; i < ml; i++ {
		tail.next[i].Store(&ixLink{})
		head.next[i].Store(&ixLink{next: tail})
	}
	return &keyIndex{head: head, tail: tail, maxLevel: ml}
}

// ixMix is the SplitMix64 finalizer, the index's private source of level
// randomness (a shared Rng would race across bucket owners).
func ixMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// randomLevel draws a geometric(1/2) tower height in [1, maxLevel].
func (ix *keyIndex) randomLevel() int {
	lvl := bits.TrailingZeros64(ixMix(ix.levelSrc.Add(0x9e3779b97f4a7c15))) + 1
	if lvl > ix.maxLevel {
		lvl = ix.maxLevel
	}
	return lvl
}

// find locates the window for k on every level, snipping marked nodes
// (each bottom-level snip retires the node through c). Reports whether k
// is present at the bottom level.
func (ix *keyIndex) find(c *core.Ctx, k core.Key, preds, succs []*ixNode) bool {
retry:
	for {
		pred := ix.head
		for lvl := ix.maxLevel - 1; lvl >= 0; lvl-- {
			predLink := pred.next[lvl].Load()
			curr := predLink.next
			for {
				currLink := curr.next[lvl].Load()
				for currLink.marked {
					if predLink.marked {
						// pred was removed while the descent stood on it; a
						// snip CASed through this link would unmark it and
						// resurrect pred (see skiplist.LockFree.find).
						continue retry
					}
					snip := &ixLink{next: currLink.next}
					if !pred.next[lvl].CompareAndSwap(predLink, snip) {
						continue retry
					}
					if lvl == 0 {
						c.Retire(curr, nil) // nil: see pool.go
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

// insert shadows a successful bucket insert. The caller's bucket lock
// guarantees k is absent from the index (same-key operations serialize
// on the bucket), so insert only contends with neighbors.
func (ix *keyIndex) insert(c *core.Ctx, k core.Key, v core.Value) {
	topLevel := ix.randomLevel() - 1
	var pa, sa [ixMaxMaxLevel]*ixNode
	preds, succs := pa[:ix.maxLevel], sa[:ix.maxLevel]
	for {
		if ix.find(c, k, preds, succs) {
			return // unreachable under the bucket-serialization invariant
		}
		n := newIxNode(k, v, topLevel+1)
		for lvl := 0; lvl <= topLevel; lvl++ {
			n.next[lvl].Store(&ixLink{next: succs[lvl]})
		}
		// Bottom level decides membership.
		predLink := preds[0].next[0].Load()
		if predLink.next != succs[0] || predLink.marked {
			continue
		}
		if !preds[0].next[0].CompareAndSwap(predLink, &ixLink{next: n}) {
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
					if !n.next[lvl].CompareAndSwap(nLink, &ixLink{next: succ}) {
						continue
					}
				}
				predLink := preds[lvl].next[lvl].Load()
				if predLink.next == succ && !predLink.marked &&
					preds[lvl].next[lvl].CompareAndSwap(predLink, &ixLink{next: n}) {
					break
				}
				// Window moved: recompute and retry this level.
				ix.find(c, k, preds, succs)
				if succs[0] != n {
					// Node got deleted meanwhile; abandon upper splicing.
					lvl = topLevel
					break
				}
			}
		}
		return
	}
}

// remove shadows a successful bucket remove: mark from the top level
// down; the bottom mark unshadows the key. Same-key serialization means
// the victim is always present and nobody else removes it concurrently.
func (ix *keyIndex) remove(c *core.Ctx, k core.Key) {
	var pa, sa [ixMaxMaxLevel]*ixNode
	preds, succs := pa[:ix.maxLevel], sa[:ix.maxLevel]
	if !ix.find(c, k, preds, succs) {
		return // unreachable under the bucket-serialization invariant
	}
	victim := succs[0]
	for lvl := victim.topLevel; lvl >= 1; lvl-- {
		for {
			link := victim.next[lvl].Load()
			if link.marked {
				break
			}
			if victim.next[lvl].CompareAndSwap(link, &ixLink{next: link.next, marked: true}) {
				break
			}
		}
	}
	for {
		link := victim.next[0].Load()
		if link.marked {
			return
		}
		if victim.next[0].CompareAndSwap(link, &ixLink{next: link.next, marked: true}) {
			ix.find(c, k, preds, succs) // physical cleanup
			return
		}
	}
}

// collect walks the index in ascending key order over [pos, hi),
// emitting unmarked mappings until emit declines. Atomic loads only, no
// helping, restartable — exactly what the table's GuardedScan /
// GuardedPage collect phases require. The descent to pos is O(log n);
// the walk is O(keys emitted).
func (ix *keyIndex) collect(pos, hi core.Key, emit func(k core.Key, v core.Value) bool) {
	pred := ix.head
	var curr *ixNode
	for lvl := ix.maxLevel - 1; lvl >= 0; lvl-- {
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
}
