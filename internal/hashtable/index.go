// The ordered key index of the monolithic hash tables: a compact lazy
// skip list shadowing the table's live mappings, so cursor pages and
// range scans run in O(log n + page) / O(log n + range) instead of the
// O(table) collect-and-sort the tables paid before — a hash walk has no
// resumable order of its own, but its shadow does.
//
// Built on first ordered read: a fresh index is off, and writers skip
// it. The first Scan or CursorNext of the table builds it (ready): it
// switches the index to shadowing, from which point every writer keeps
// the index up to date, then sweeps the table one bucket at a time
// under that bucket's writer lock, inserting every live mapping, and
// publishes ready. Point-only traffic never builds it and never pays
// for it; once built, it is maintained for the table's lifetime.
//
// Consistency protocol: a shadowing writer mutates the index inside the
// owning table's ScanGuard write brackets, in the same bracket as the
// bucket mutation it shadows, and reads the shadowing flag under the
// lock that serializes its key. Readers (the table's guarded scan/page
// collects) collect only once the index is ready, traverse it with
// atomic loads only and validate against that same guard, so a
// validated collect is guaranteed to have seen a state in which bucket
// and index agree — pages and scans stay individually linearizable
// against the table's point operations, exactly as before.
//
// The skip list is the lazy, lock-based one of Herlihy, Lev, Luchangco
// and Shavit ("A Simple Optimistic Skiplist Algorithm", SIROCCO 2007),
// the algorithm of skiplist/herlihy stripped to the index role: a
// read-only descent, then locks on the neighbours of the changed node
// only, validated and retried if a neighbour moved. That is the paper's
// trade — updates to unrelated keys rarely share a neighbour, so a
// blocking index waits about as rarely as a lock-free one retries, with
// one load per hop and no per-link allocation. Index locks are acquired
// with nil stats, so index maintenance records nothing into the paper's
// fine-grained lock-wait/restart metrics; those stay the table's own.
//
// Lock order: the build mutex, then the table's bucket lock (or
// Bucketed's sequencer), then index node locks, then nothing — index
// code never waits on a table lock, and writers never wait on the build
// mutex. Within the index every update locks in descending key order (a
// remove's victim first, then the predecessors bottom-up, whose keys
// fall as levels rise), the order the lazy skip list's deadlock-freedom
// proof rests on.
//
// Unlinked nodes are retired through the caller's epoch record (every
// table operation that touches the index runs inside an epoch bracket)
// with a nil reclaim callback: ixNodes fall to the GC (see pool.go).
package hashtable

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"csds/internal/core"
	"csds/internal/locks"
)

// ixNode is one index node. It has no fullyLinked flag, unlike the lazy
// skip list's nodes: the tables serialize same-key index updates on
// their bucket lock (or sequencer), the build's sweep included, so
// insert never races an insert or remove of its key, and remove only
// ever finds a node whose insert has finished — its tower fully linked,
// found at its top level. Readers need no flag either: a collect that
// overlapped an unfinished splice fails its guard validation. next is
// the tower, allocated in the same object as the node (core.NewTower),
// so an insert allocates one object; its length is the node's height.
// Nodes of height 1 and 2, three in four, fit 64 bytes with their tower
// (TestTowerLayout).
type ixNode struct {
	key    core.Key
	val    core.Value
	next   []atomic.Pointer[ixNode]
	marked atomic.Bool // logically removed; set under lock before the unlink
	lock   locks.TAS
}

func newIxNode(k core.Key, v core.Value, height int) *ixNode {
	n, next := core.NewTower[ixNode](height)
	n.key, n.val, n.next = k, v, next
	return n
}

// topLevel is the index of the highest level in the node's tower.
func (n *ixNode) topLevel() int { return len(n.next) - 1 }

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

// The index's states, in the only order it moves through them.
const (
	ixOff       uint32 = iota // writers skip the index; it holds nothing
	ixShadowing               // writers maintain it; a build is sweeping
	ixReady                   // built: ordered reads may collect
)

// keyIndex is the per-table ordered shadow. The zero value is not
// usable; use newKeyIndex.
type keyIndex struct {
	head     *ixNode
	tail     *ixNode
	maxLevel int
	levelSrc atomic.Uint64 // private level PRNG state (SplitMix64 stream)
	state    atomic.Uint32 // ixOff, ixShadowing or ixReady
	build    sync.Mutex    // serializes builds; first in the lock order
}

// shadowing reports whether writers must keep the index up to date. A
// writer reads it under the lock that serializes its key, so it either
// runs wholly before the build sweeps its bucket (the sweep then sees
// its effect in the bucket) or after the build switched to shadowing.
func (ix *keyIndex) shadowing() bool { return ix.state.Load() != ixOff }

// ready builds the index on a table's first ordered read and returns
// once it is built; later calls cost one atomic load. sweep must insert
// every live mapping of the table, one bucket at a time while holding
// the writer lock of that bucket: same-key index updates then stay
// serialized on the table's own lock, and insert's present-key return
// (a writer shadowed the key first) and remove's absent-key return (the
// writer removed a key the sweep had not reached) make the sweep and
// the writers agree whatever order they meet in. Callers hold an epoch
// bracket.
func (ix *keyIndex) ready(sweep func()) {
	if ix.state.Load() == ixReady {
		return
	}
	ix.build.Lock()
	if ix.state.Load() != ixReady {
		ix.state.Store(ixShadowing)
		sweep()
		ix.state.Store(ixReady)
	}
	ix.build.Unlock()
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
		head.next[i].Store(tail)
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

// find fills, on every level, the last node before k and the first node
// at or after it, and returns the highest level at which k was found
// (-1: absent). Pure reading, one load per hop.
func (ix *keyIndex) find(k core.Key, preds, succs []*ixNode) int {
	found := -1
	pred := ix.head
	for lvl := ix.maxLevel - 1; lvl >= 0; lvl-- {
		curr := pred.next[lvl].Load()
		for curr.key < k {
			pred = curr
			curr = pred.next[lvl].Load()
		}
		if found == -1 && curr.key == k {
			found = lvl
		}
		preds[lvl] = pred
		succs[lvl] = curr
	}
	return found
}

// lockWindow locks the distinct preds of levels [0, top] bottom-up and
// validates each level: pred unmarked and still linked to succs[lvl],
// and, when live is set, succ unmarked too. On a failed level it
// releases what it took and reports false; the caller searches again.
func lockWindow(preds, succs []*ixNode, top int, live bool) bool {
	for lvl := 0; lvl <= top; lvl++ {
		p, s := preds[lvl], succs[lvl]
		if lvl == 0 || p != preds[lvl-1] {
			p.lock.Acquire(nil)
		}
		if p.marked.Load() || p.next[lvl].Load() != s || (live && s.marked.Load()) {
			unlockWindow(preds, lvl)
			return false
		}
	}
	return true
}

// unlockWindow releases the distinct preds of levels [0, top].
func unlockWindow(preds []*ixNode, top int) {
	for lvl := 0; lvl <= top; lvl++ {
		if lvl == 0 || preds[lvl] != preds[lvl-1] {
			preds[lvl].lock.Release()
		}
	}
}

// link splices n into the window preds/succs bottom-up under the window's
// locks, or reports false if the window moved since it was searched.
func link(n *ixNode, preds, succs []*ixNode) bool {
	top := n.topLevel()
	if !lockWindow(preds, succs, top, true) {
		return false
	}
	for lvl := 0; lvl <= top; lvl++ {
		n.next[lvl].Store(succs[lvl])
	}
	for lvl := 0; lvl <= top; lvl++ {
		preds[lvl].next[lvl].Store(n)
	}
	unlockWindow(preds, top)
	return true
}

// unlink removes the marked victim from the window preds/succs top-down
// under the window's locks, or reports false if the window moved.
func unlink(victim *ixNode, preds, succs []*ixNode) bool {
	top := victim.topLevel()
	if !lockWindow(preds, succs, top, false) {
		return false
	}
	for lvl := top; lvl >= 0; lvl-- {
		preds[lvl].next[lvl].Store(victim.next[lvl].Load())
	}
	unlockWindow(preds, top)
	return true
}

// insert shadows a successful bucket insert, or adds a mapping the
// build's sweep found. The caller's bucket lock keeps every other
// update of k out, so insert only contends with neighbours, and it
// allocates the node only once k is known absent.
func (ix *keyIndex) insert(c *core.Ctx, k core.Key, v core.Value) {
	var pa, sa [ixMaxMaxLevel]*ixNode
	preds, succs := pa[:ix.maxLevel], sa[:ix.maxLevel]
	var n *ixNode
	for {
		if ix.find(k, preds, succs) != -1 {
			// Present: during a build, a writer that saw the index
			// shadowing inserted k before the sweep reached its bucket.
			return
		}
		if n == nil {
			n = newIxNode(k, v, ix.randomLevel())
		}
		if link(n, preds, succs) {
			return
		}
	}
}

// remove shadows a successful bucket remove: mark the victim under its
// own lock (which keeps inserters from linking after it), then unlink
// it. Same-key serialization means a present victim is fully linked and
// nobody else removes it concurrently.
func (ix *keyIndex) remove(c *core.Ctx, k core.Key) {
	var pa, sa [ixMaxMaxLevel]*ixNode
	preds, succs := pa[:ix.maxLevel], sa[:ix.maxLevel]
	if ix.find(k, preds, succs) == -1 {
		// Absent: during a build, k entered its bucket before the index
		// was shadowing and leaves it before the sweep reaches it.
		return
	}
	victim := succs[0]
	victim.lock.Acquire(nil)
	victim.marked.Store(true)
	for !unlink(victim, preds, succs) {
		ix.find(k, preds, succs)
	}
	victim.lock.Release()
	c.Retire(victim, nil) // nil: see pool.go
}

// collect walks the index in ascending key order over [pos, hi),
// emitting unmarked mappings until emit declines. Atomic loads only,
// no locks, restartable — exactly what the table's GuardedScan /
// GuardedPage collect phases require. The descent to pos is O(log n);
// the walk is O(keys emitted).
func (ix *keyIndex) collect(pos, hi core.Key, emit func(k core.Key, v core.Value) bool) {
	pred := ix.head
	var curr *ixNode
	for lvl := ix.maxLevel - 1; lvl >= 0; lvl-- {
		curr = pred.next[lvl].Load()
		for curr.key < pos {
			pred = curr
			curr = pred.next[lvl].Load()
		}
	}
	for curr.key < hi {
		if !curr.marked.Load() && !emit(curr.key, curr.val) {
			return
		}
		curr = curr.next[0].Load()
	}
}
