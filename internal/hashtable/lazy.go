// Package hashtable implements the hash-table set algorithms of the
// paper's Table 1: the featured lazy hash table (one lazy linked list per
// bucket with a per-bucket lock, average load factor 1), lock-coupling and
// Pugh-list bucket variants, a copy-on-write table, and a striped
// (ConcurrentHashMap-flavoured) table whose lock granularity is coarser
// than its buckets.
package hashtable

import (
	"math/bits"
	"sync/atomic"

	"csds/internal/core"
	"csds/internal/htm"
	"csds/internal/locks"
)

// defaultBuckets is used when neither Buckets nor ExpectedSize is given.
const defaultBuckets = 1024

// bucketCount resolves the table size: the paper sets the average load
// factor per bucket to 1, so the bucket count tracks the expected size,
// rounded up to a power of two for mask indexing.
func bucketCount(o core.Options) int {
	n := o.Buckets
	if n <= 0 {
		n = o.ExpectedSize
	}
	if n <= 0 {
		n = defaultBuckets
	}
	if n < 2 {
		n = 2
	}
	return 1 << bits.Len(uint(n-1)) // next power of two
}

// hash spreads keys over buckets (Fibonacci multiplicative hashing).
func hash(k core.Key, mask uint64) uint64 {
	return (uint64(k) * 0x9e3779b97f4a7c15 >> 17) & mask
}

// lnode is a bucket-chain node. next/marked are atomic so Get can traverse
// without the bucket lock (the read path stays synchronization-free, as in
// every state-of-the-art algorithm in the paper).
type lnode struct {
	key    core.Key
	val    core.Value
	marked atomic.Bool
	next   atomic.Pointer[lnode]
}

// lbucket pads each lock+head pair to its own cache line region.
type lbucket struct {
	lock locks.TAS
	head atomic.Pointer[lnode]
	_    [40]byte
}

// Lazy is the featured hash table: a lazy linked list per bucket, one lock
// per bucket. The parse phase is effectively empty (d_p = 0 in the birthday
// model of §6.1: the lock is acquired immediately after the update starts),
// and operations never restart — once a writer holds its bucket lock
// nothing can invalidate its window (§5.1: "this value is 0 in the case of
// the hash table").
type Lazy struct {
	buckets []lbucket
	mask    uint64
	region  htm.Region
	guard   core.ScanGuard // validates optimistic range scans (table-wide)
	index   *keyIndex      // ordered shadow, built on the first Scan/CursorNext
}

// NewLazy builds a lazy hash table sized per o (load factor 1).
func NewLazy(o core.Options) *Lazy {
	n := bucketCount(o)
	return &Lazy{buckets: make([]lbucket, n), mask: uint64(n - 1), region: o.Region(), index: newKeyIndex(indexSize(o, n))}
}

func init() {
	core.Register(core.Info{
		Name: "hashtable/lazy", Kind: "hashtable", Progress: "blocking", Featured: true,
		New:  func(o core.Options) core.Set { return NewLazy(o) },
		Desc: "per-bucket-lock lazy hash table (featured, load factor 1)",
	})
}

// Get implements core.Set: lock-free bucket scan.
func (h *Lazy) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	c.EpochEnter()
	defer c.EpochExit()
	b := &h.buckets[hash(k, h.mask)]
	for n := b.head.Load(); n != nil; n = n.next.Load() {
		if n.key == k {
			if n.marked.Load() {
				return 0, false
			}
			return n.val, true
		}
		if n.key > k {
			break
		}
	}
	return 0, false
}

// Put implements core.Set.
func (h *Lazy) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	c.EpochEnter()
	defer c.EpochExit()
	b := &h.buckets[hash(k, h.mask)]
	if h.region.Attempts > 0 {
		var inserted bool
		h.region.Run(c.Stat(), c.Injector(), func(a *htm.Acq) htm.Status {
			if !a.Lock(&b.lock) {
				return a.AbortStatus()
			}
			if !a.Commit() {
				return a.AbortStatus()
			}
			inserted = b.insertLocked(c, &h.guard, h.index, k, v)
			return htm.Committed
		})
		c.RecordRestarts(0)
		return inserted
	}
	b.lock.Acquire(c.Stat())
	c.InCS()
	ok := b.insertLocked(c, &h.guard, h.index, k, v)
	b.lock.Release()
	c.RecordRestarts(0)
	return ok
}

// insertLocked does the sorted-splice under the bucket lock; a
// membership change opens g's scan window (g may be nil) and, once the
// ordered index is shadowing, shadows itself into it inside that same
// window, so a validated guarded collect always sees bucket and index
// in agreement.
func (b *lbucket) insertLocked(c *core.Ctx, g *core.ScanGuard, ix *keyIndex, k core.Key, v core.Value) bool {
	var pred *lnode
	curr := b.head.Load()
	for curr != nil && curr.key < k {
		pred = curr
		curr = curr.next.Load()
	}
	if curr != nil && curr.key == k {
		return false
	}
	n := newLNode(c, k, v, curr)
	g.BeginWrite(c.Stat())
	if pred == nil {
		b.head.Store(n)
	} else {
		pred.next.Store(n)
	}
	if ix.shadowing() {
		ix.insert(c, k, v)
	}
	g.EndWrite()
	return true
}

// Remove implements core.Set.
func (h *Lazy) Remove(c *core.Ctx, k core.Key) bool {
	c.EpochEnter()
	defer c.EpochExit()
	b := &h.buckets[hash(k, h.mask)]
	if h.region.Attempts > 0 {
		var removed bool
		var victim *lnode
		h.region.Run(c.Stat(), c.Injector(), func(a *htm.Acq) htm.Status {
			if !a.Lock(&b.lock) {
				return a.AbortStatus()
			}
			if !a.Commit() {
				return a.AbortStatus()
			}
			removed, victim = b.removeLocked(c, &h.guard, h.index, k)
			return htm.Committed
		})
		if removed {
			c.Retire(victim, reclaimLNode)
		}
		c.RecordRestarts(0)
		return removed
	}
	b.lock.Acquire(c.Stat())
	c.InCS()
	ok, victim := b.removeLocked(c, &h.guard, h.index, k)
	b.lock.Release()
	if ok {
		c.Retire(victim, reclaimLNode)
	}
	c.RecordRestarts(0)
	return ok
}

func (b *lbucket) removeLocked(c *core.Ctx, g *core.ScanGuard, ix *keyIndex, k core.Key) (bool, *lnode) {
	var pred *lnode
	curr := b.head.Load()
	for curr != nil && curr.key < k {
		pred = curr
		curr = curr.next.Load()
	}
	if curr == nil || curr.key != k {
		return false, nil
	}
	g.BeginWrite(c.Stat())
	curr.marked.Store(true) // logical delete first: concurrent readers stay correct
	if pred == nil {
		b.head.Store(curr.next.Load())
	} else {
		pred.next.Store(curr.next.Load())
	}
	if ix.shadowing() {
		ix.remove(c, k)
	}
	g.EndWrite()
	return true, curr
}

// sweep inserts the bucket's live mappings into ix while holding l, the
// lock that serializes the bucket's writers, taken with nil stats like
// every index lock (see keyIndex.ready).
func (b *lbucket) sweep(c *core.Ctx, l *locks.TAS, ix *keyIndex) {
	l.Acquire(nil)
	for n := b.head.Load(); n != nil; n = n.next.Load() {
		if !n.marked.Load() {
			ix.insert(c, n.key, n.val)
		}
	}
	l.Release()
}

// sweep builds the ordered index one bucket at a time under the
// bucket's own lock (see keyIndex.ready).
func (h *Lazy) sweep(c *core.Ctx) {
	for i := range h.buckets {
		b := &h.buckets[i]
		b.sweep(c, &b.lock, h.index)
	}
}

// Len implements core.Set (quiesced use).
func (h *Lazy) Len() int {
	total := 0
	for i := range h.buckets {
		for n := h.buckets[i].head.Load(); n != nil; n = n.next.Load() {
			if !n.marked.Load() {
				total++
			}
		}
	}
	return total
}

// Range implements core.Ranger: a bucket-by-bucket walk over unmarked
// nodes, in arbitrary key order, quiesced-use like Len.
func (h *Lazy) Range(f func(k core.Key, v core.Value) bool) {
	for i := range h.buckets {
		for n := h.buckets[i].head.Load(); n != nil; n = n.next.Load() {
			if !n.marked.Load() && !f(n.key, n.val) {
				return
			}
		}
	}
}

// Scan implements core.Scanner over the ordered key index: an O(log n)
// descent to lo, then an ascending in-range walk, collected under the
// table-wide optimistic scan guard and accepted only if no update ran
// concurrently — atomic per call, O(log n + range) instead of the
// O(table) bucket sweep of the unindexed design, and in ascending key
// order (updates keep the index in the same guard bracket as the bucket
// splice, so a validated collect saw bucket and index agree). The
// table's first ordered read builds the index first.
func (h *Lazy) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	if lo >= hi {
		return true
	}
	c.EpochEnter()
	defer c.EpochExit()
	h.index.ready(func() { h.sweep(c) })
	return core.GuardedScan(c, &h.guard, func(emit func(k core.Key, v core.Value)) {
		h.index.collect(lo, hi, func(k core.Key, v core.Value) bool {
			emit(k, v)
			return true
		})
	}, f)
}

// CursorNext implements core.Cursor: a bounded guard-validated page off
// the ordered key index — O(log n) seek to the position, O(page) walk —
// in ascending key order like every cursor in this module. The index
// (maintained inside the same guard brackets as the bucket splices) is
// what retires the old O(table)-per-page collect-and-sort: hash-table
// pages now cost what list pages cost, plus the seek.
func (h *Lazy) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	if pos >= hi {
		return hi, true
	}
	c.EpochEnter()
	defer c.EpochExit()
	h.index.ready(func() { h.sweep(c) })
	return core.GuardedPage(c, &h.guard, hi, max, func(emit func(k core.Key, v core.Value) bool) {
		h.index.collect(pos, hi, emit)
	}, f)
}
