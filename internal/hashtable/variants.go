package hashtable

import (
	"sort"
	"sync/atomic"

	"csds/internal/core"
	"csds/internal/list"
	"csds/internal/locks"
)

// Bucketed composes any list-based core.Set into a hash table: one
// independent sub-set per bucket. This is exactly how ASCYLIB builds its
// lock-coupling and Pugh hash tables, and it reuses the heavily tested list
// implementations.
type Bucketed struct {
	buckets []core.Set
	mask    uint64
	guard   core.ScanGuard // brackets composite updates for index agreement
	index   *keyIndex      // ordered shadow, built on the first Scan/CursorNext
	seq     []ixSeqLock    // per-bucket-striped update sequencers (see Put)
}

// ixSeqCount bounds the sequencer pool (tables smaller than this get one
// sequencer per bucket — the featured table's own lock granularity).
const ixSeqCount = 1024

// ixSeqLock pads each sequencer to its own cache line region.
type ixSeqLock struct {
	lock locks.TAS
	_    [60]byte
}

// NewBucketed builds a table of n buckets (rounded to a power of two) where
// each bucket is produced by mk.
func NewBucketed(o core.Options, mk func(core.Options) core.Set) *Bucketed {
	n := bucketCount(o)
	sub := o
	sub.ExpectedSize = 2 // load factor 1: tiny chains
	ns := n
	if ns > ixSeqCount {
		ns = ixSeqCount
	}
	b := &Bucketed{buckets: make([]core.Set, n), mask: uint64(n - 1), index: newKeyIndex(indexSize(o, n)), seq: make([]ixSeqLock, ns)}
	for i := range b.buckets {
		b.buckets[i] = mk(sub)
	}
	return b
}

func init() {
	core.Register(core.Info{
		Name: "hashtable/lockcoupling", Kind: "hashtable", Progress: "blocking",
		New: func(o core.Options) core.Set {
			return NewBucketed(o, func(so core.Options) core.Set { return list.NewLockCoupling(so) })
		},
		Desc: "hash table with a lock-coupling list per bucket",
	})
	core.Register(core.Info{
		Name: "hashtable/pugh", Kind: "hashtable", Progress: "blocking",
		New: func(o core.Options) core.Set {
			return NewBucketed(o, func(so core.Options) core.Set { return list.NewPugh(so) })
		},
		Desc: "hash table with a Pugh list per bucket",
	})
	core.Register(core.Info{
		Name: "hashtable/harris", Kind: "hashtable", Progress: "lock-free",
		New: func(o core.Options) core.Set {
			return NewBucketed(o, func(so core.Options) core.Set { return list.NewHarris(so) })
		},
		Desc: "lock-free hash table (Michael 2002 style: Harris list per bucket)",
	})
	core.Register(core.Info{
		Name: "hashtable/waitfree", Kind: "hashtable", Progress: "wait-free",
		New: func(o core.Options) core.Set {
			return NewBucketed(o, func(so core.Options) core.Set { return list.NewWaitFree(so) })
		},
		Desc: "wait-free hash table (descriptor/helping list per bucket; footnote 2 of the paper)",
	})
	core.Register(core.Info{
		Name: "hashtable/cow", Kind: "hashtable", Progress: "blocking",
		New:  func(o core.Options) core.Set { return NewCOW(o) },
		Desc: "copy-on-write hash table (whole-map copy per update)",
	})
	core.Register(core.Info{
		Name: "hashtable/striped", Kind: "hashtable", Progress: "blocking",
		New:  func(o core.Options) core.Set { return NewStriped(o) },
		Desc: "striped ConcurrentHashMap-style table (16 lock stripes)",
	})
}

// Get implements core.Set.
func (b *Bucketed) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	return b.buckets[hash(k, b.mask)].Get(c, k)
}

// Put implements core.Set. Two pieces of discipline keep the ordered
// index agreeing with the buckets:
//
//   - the whole update runs inside the composite's guard bracket, so a
//     validated guarded collect never observes a bucket mutation whose
//     index shadow has not landed (an unsuccessful Put bumps the guard
//     version spuriously; that costs collect retries, never
//     correctness);
//   - the inner operation and its index shadow run under a per-bucket
//     sequencer lock, so two updates of the same key apply their index
//     deltas in the same order their bucket effects linearized —
//     without it, a delegated Put's index insert could land after a
//     later Remove's index delete and strand the key in the index
//     forever. The sequencer is also the lock the index build sweeps
//     each bucket under, and the lock a writer reads the index's
//     shadowing flag under. It is the featured lazy table's own lock
//     granularity (per bucket, striped beyond ixSeqCount buckets);
//     reads never touch it, so the read path keeps the inner
//     structure's progress guarantee, and its waits surface in the
//     lock-wait metrics like every lock in this module.
func (b *Bucketed) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	c.EpochEnter()
	defer c.EpochExit()
	bi := hash(k, b.mask)
	l := &b.seq[bi%uint64(len(b.seq))].lock
	b.guard.BeginWrite(c.Stat())
	l.Acquire(c.Stat())
	ok := b.buckets[bi].Put(c, k, v)
	if ok && b.index.shadowing() {
		b.index.insert(c, k, v)
	}
	l.Release()
	b.guard.EndWrite()
	return ok
}

// Remove implements core.Set (sequencing discipline as in Put).
func (b *Bucketed) Remove(c *core.Ctx, k core.Key) bool {
	c.EpochEnter()
	defer c.EpochExit()
	bi := hash(k, b.mask)
	l := &b.seq[bi%uint64(len(b.seq))].lock
	b.guard.BeginWrite(c.Stat())
	l.Acquire(c.Stat())
	ok := b.buckets[bi].Remove(c, k)
	if ok && b.index.shadowing() {
		b.index.remove(c, k)
	}
	l.Release()
	b.guard.EndWrite()
	return ok
}

// sweep builds the ordered index one bucket at a time under that
// bucket's sequencer (see keyIndex.ready).
func (b *Bucketed) sweep(c *core.Ctx) {
	add := func(k core.Key, v core.Value) bool {
		b.index.insert(c, k, v)
		return true
	}
	for i, s := range b.buckets {
		l := &b.seq[uint64(i)%uint64(len(b.seq))].lock
		l.Acquire(nil)
		s.(core.Ranger).Range(add)
		l.Release()
	}
}

// Len implements core.Set.
func (b *Bucketed) Len() int {
	total := 0
	for _, s := range b.buckets {
		total += s.Len()
	}
	return total
}

// Range implements core.Ranger when every bucket list does (all the lists
// in this module do), visiting buckets in index order — arbitrary key
// order overall.
func (b *Bucketed) Range(f func(k core.Key, v core.Value) bool) {
	done := false
	for _, s := range b.buckets {
		if done {
			return
		}
		s.(core.Ranger).Range(func(k core.Key, v core.Value) bool {
			if !f(k, v) {
				done = true
			}
			return !done
		})
	}
}

// Scan implements core.Scanner over the composite's ordered key index,
// validated by the composite guard: O(log n + range), ascending, atomic
// per call — delegated per-bucket scans (unordered, O(table)) are gone.
func (b *Bucketed) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	if lo >= hi {
		return true
	}
	c.EpochEnter()
	defer c.EpochExit()
	b.index.ready(func() { b.sweep(c) })
	return core.GuardedScan(c, &b.guard, func(emit func(k core.Key, v core.Value)) {
		b.index.collect(lo, hi, func(k core.Key, v core.Value) bool {
			emit(k, v)
			return true
		})
	}, f)
}

// CursorNext implements core.Cursor: a bounded guard-validated page off
// the ordered key index, O(log n + page) — the 1024-way per-bucket
// cursor merge this replaces pulled up to a page from every bucket list
// per page, the worst overcollect in the module.
func (b *Bucketed) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	if pos >= hi {
		return hi, true
	}
	c.EpochEnter()
	defer c.EpochExit()
	b.index.ready(func() { b.sweep(c) })
	return core.GuardedPage(c, &b.guard, hi, max, func(emit func(k core.Key, v core.Value) bool) {
		b.index.collect(pos, hi, emit)
	}, f)
}

// cowSnap is one immutable COW-table version: the map for O(1) point
// reads plus its ascending key slice — the table's ordered index,
// snapshotted for free since every write copies the world anyway. The
// slice gives ordered O(log n + range) scans and O(log n + page) cursor
// pages off a binary search.
type cowSnap struct {
	m    map[core.Key]core.Value
	keys []core.Key // ascending
}

// seek returns the index of the first key >= k.
func (s *cowSnap) seek(k core.Key) int {
	return sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= k })
}

// COW is the copy-on-write hash table: readers load an immutable
// snapshot; each writer copies the entire map (and its sorted key
// slice) under a global lock. Wait-free O(1) reads, fully serialized
// O(n) writes.
type COW struct {
	snap atomic.Pointer[cowSnap]
	mu   locks.Ticket
}

// NewCOW builds an empty copy-on-write table.
func NewCOW(o core.Options) *COW {
	h := &COW{}
	h.snap.Store(&cowSnap{m: make(map[core.Key]core.Value)})
	return h
}

// Get implements core.Set.
func (h *COW) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	v, ok := h.snap.Load().m[k]
	return v, ok
}

// Put implements core.Set.
func (h *COW) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	h.mu.Acquire(c.Stat())
	old := h.snap.Load()
	if _, ok := old.m[k]; ok {
		h.mu.Release()
		c.RecordRestarts(0)
		return false
	}
	next := &cowSnap{m: make(map[core.Key]core.Value, len(old.m)+1)}
	for ok, ov := range old.m {
		next.m[ok] = ov
	}
	next.m[k] = v
	i := old.seek(k)
	next.keys = make([]core.Key, 0, len(old.keys)+1)
	next.keys = append(next.keys, old.keys[:i]...)
	next.keys = append(next.keys, k)
	next.keys = append(next.keys, old.keys[i:]...)
	c.InCS()
	h.snap.Store(next)
	h.mu.Release()
	c.RecordRestarts(0)
	return true
}

// Remove implements core.Set.
func (h *COW) Remove(c *core.Ctx, k core.Key) bool {
	h.mu.Acquire(c.Stat())
	old := h.snap.Load()
	if _, ok := old.m[k]; !ok {
		h.mu.Release()
		c.RecordRestarts(0)
		return false
	}
	next := &cowSnap{m: make(map[core.Key]core.Value, len(old.m))}
	for ok, ov := range old.m {
		if ok != k {
			next.m[ok] = ov
		}
	}
	i := old.seek(k)
	next.keys = make([]core.Key, 0, len(old.keys)-1)
	next.keys = append(next.keys, old.keys[:i]...)
	next.keys = append(next.keys, old.keys[i+1:]...)
	c.InCS()
	h.snap.Store(next)
	h.mu.Release()
	c.RecordRestarts(0)
	return true
}

// Len implements core.Set.
func (h *COW) Len() int { return len(h.snap.Load().m) }

// Range implements core.Ranger over one immutable snapshot (exact even
// during concurrency), in ascending key order.
func (h *COW) Range(f func(k core.Key, v core.Value) bool) {
	s := h.snap.Load()
	for _, k := range s.keys {
		if !f(k, s.m[k]) {
			return
		}
	}
}

// Scan implements core.Scanner for free: one immutable snapshot load, a
// binary search to lo, and an in-order walk of the sorted key slice —
// ascending and O(log n + range); the scan linearizes at the load.
func (h *COW) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	if lo >= hi {
		return true
	}
	s := h.snap.Load()
	for i := s.seek(lo); i < len(s.keys) && s.keys[i] < hi; i++ {
		if !f(s.keys[i], s.m[s.keys[i]]) {
			return false
		}
	}
	return true
}

// CursorNext implements core.Cursor as a snapshot cursor: each page
// loads the then-current immutable snapshot, binary-searches to the
// token position, and delivers up to max keys ascending — O(log n +
// page), nothing pinned between pages; each page linearizes at its own
// snapshot load.
func (h *COW) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	if pos >= hi {
		return hi, true
	}
	if max < 1 {
		max = 1
	}
	s := h.snap.Load()
	delivered := 0
	for i := s.seek(pos); i < len(s.keys) && s.keys[i] < hi; i++ {
		if delivered == max {
			c.RecordPagePull(delivered)
			return s.keys[i-1] + 1, false
		}
		if !f(s.keys[i], s.m[s.keys[i]]) {
			c.RecordPagePull(delivered + 1)
			return s.keys[i] + 1, false
		}
		delivered++
	}
	c.RecordPagePull(delivered)
	return hi, true
}

// stripeCount is the fixed stripe count of the striped table (Java
// ConcurrentHashMap's historical default concurrency level).
const stripeCount = 16

// Striped is a ConcurrentHashMap-flavoured table: the bucket array is
// guarded by a fixed pool of lock stripes, so unrelated buckets can share a
// lock. Reads stay lock-free; the coarser write granularity shows up as
// extra waiting under contention (ablation: per-bucket vs striped locks,
// §5.3's granularity remark).
type Striped struct {
	buckets []lbucket // locks inside lbucket unused; stripes rule
	stripes [stripeCount]struct {
		lock locks.TAS
		_    [60]byte
	}
	mask  uint64
	guard core.ScanGuard // validates optimistic range scans (table-wide)
	index *keyIndex      // ordered shadow, built on the first Scan/CursorNext
}

// NewStriped builds a striped table sized per o.
func NewStriped(o core.Options) *Striped {
	n := bucketCount(o)
	return &Striped{buckets: make([]lbucket, n), mask: uint64(n - 1), index: newKeyIndex(indexSize(o, n))}
}

func (h *Striped) stripe(b uint64) *locks.TAS {
	return &h.stripes[b%stripeCount].lock
}

// Get implements core.Set: lock-free bucket scan inside an epoch
// bracket (bucket nodes are pooled, so unbracketed traversal could step
// onto a recycled node).
func (h *Striped) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
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
func (h *Striped) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	c.EpochEnter()
	defer c.EpochExit()
	bi := hash(k, h.mask)
	l := h.stripe(bi)
	l.Acquire(c.Stat())
	c.InCS()
	ok := h.buckets[bi].insertLocked(c, &h.guard, h.index, k, v)
	l.Release()
	c.RecordRestarts(0)
	return ok
}

// Remove implements core.Set.
func (h *Striped) Remove(c *core.Ctx, k core.Key) bool {
	c.EpochEnter()
	defer c.EpochExit()
	bi := hash(k, h.mask)
	l := h.stripe(bi)
	l.Acquire(c.Stat())
	c.InCS()
	ok, victim := h.buckets[bi].removeLocked(c, &h.guard, h.index, k)
	l.Release()
	if ok {
		c.Retire(victim, reclaimLNode)
	}
	c.RecordRestarts(0)
	return ok
}

// sweep builds the ordered index one bucket at a time under the
// bucket's stripe (see keyIndex.ready).
func (h *Striped) sweep(c *core.Ctx) {
	for i := range h.buckets {
		h.buckets[i].sweep(c, h.stripe(uint64(i)), h.index)
	}
}

// Len implements core.Set.
func (h *Striped) Len() int {
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
func (h *Striped) Range(f func(k core.Key, v core.Value) bool) {
	for i := range h.buckets {
		for n := h.buckets[i].head.Load(); n != nil; n = n.next.Load() {
			if !n.marked.Load() && !f(n.key, n.val) {
				return
			}
		}
	}
}

// Scan implements core.Scanner over the ordered key index, exactly like
// the lazy table's — ascending, O(log n + range), atomic per call under
// this table's own guard, bracketed like every reader of the index.
func (h *Striped) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
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

// CursorNext implements core.Cursor: the lazy table's indexed page
// protocol under this table's own guard (ascending, O(log n + page) —
// see Lazy.CursorNext).
func (h *Striped) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
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
