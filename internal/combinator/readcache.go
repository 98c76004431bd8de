package combinator

import (
	"fmt"
	"sync/atomic"
	"time"

	"csds/internal/core"
	"csds/internal/locks"
)

// ReadCache is a bounded read-through cache over one inner instance: a
// direct-mapped table of capacity slots, filled by Get misses and
// invalidated by updates. Read-mostly skewed workloads (the Zipfian
// popularity of §5.2) concentrate Gets on few hot keys; serving those
// hits from a single atomic load turns the inner traversal cost into O(1)
// without giving up linearizability — and without adding a lock to the
// read path, which would betray the paper's whole subject.
//
// Correctness protocol. Each slot carries a version that is odd while an
// update's inner operation is in flight (a seqlock in spirit), an atomic
// pointer to an immutable cached entry, and a mutex serializing writers
// only (updates and fills — never hits):
//
//   - Update (Put/Remove): lock the slot, bump the version to odd, drop a
//     matching entry, run the inner operation, bump back to even, unlock.
//     The entry is dropped before the inner linearization point, so a
//     stale mapping is never visible after an update takes effect.
//   - Get: one atomic entry load; on a matching key that value is
//     current (see below). Otherwise snapshot the version, read through
//     the inner structure, and fill under the lock only if the snapshot
//     was even and the version is unchanged — so no update's
//     linearization point falls between the inner read and the fill, and
//     a fill can never publish a pre-update value after the update.
//
// Invariant: a loaded entry always reflects the inner structure's current
// mapping, so a hit linearizes at its load instruction. The price is that
// updates to keys sharing a slot serialize on the slot lock; the cache
// targets read-dominated workloads where that path is cold.
// Two production-shaped extensions ride on the same protocol:
//
//   - TTL (core.Options.CacheTTL): entries carry their fill time and a
//     get never serves one older than the TTL — it re-reads the inner
//     structure and refreshes the entry in place (bypassing admission:
//     the key just proved it is still read). Updates through the cache
//     invalidate immediately regardless; the TTL bounds staleness when
//     the inner structure is ALSO mutated out of band, e.g. a replica
//     applying remote writes underneath the cache. The settest battery
//     (RunCacheTTL) pins exactly that contract.
//   - Admission (core.Options.CacheAdmission): on a miss, AdmitTinyLFU /
//     AdmitWindow decide whether the newcomer may displace the resident
//     entry (see admission.go). Both are consulted and maintained on the
//     miss path only — the hit path stays one atomic load.
type ReadCache struct {
	inner core.Set
	slots []rcSlot
	mask  uint64
	fills atomic.Uint64

	ttl    int64        // ns; 0 = no expiry
	now    func() int64 // injectable clock (tests); time.Now().UnixNano()
	sketch *freqSketch  // AdmitTinyLFU state, nil otherwise
	door   *doorkeeper  // AdmitWindow state, nil otherwise
}

// rcEntry is an immutable cached mapping, swapped atomically. fillNs is
// the clock reading at fill time; only meaningful when a TTL is set.
type rcEntry struct {
	key    core.Key
	val    core.Value
	fillNs int64
}

// rcSlot is one direct-mapped cache line. The writer lock is the
// repository's instrumented test-and-set lock, not a sync.Mutex: waiting
// on it is real lock waiting and must surface in the paper's fine-grained
// metrics like every other lock in this module.
type rcSlot struct {
	mu    locks.TAS // serializes updates and fills; hits never take it
	ver   atomic.Uint64
	entry atomic.Pointer[rcEntry]
}

// maxSpecCapacity bounds the slot table (16M slots) against typo'd
// capacities in specs.
const maxSpecCapacity = 1 << 24

// NewReadCache wraps inner with a cache of about capacity entries. The
// slot table is always a power of two: capacity is rounded up to the next
// power of two, a capacity <= 0 is clamped to a single slot, and anything
// above maxSpecCapacity (2^24) is clamped down to maxSpecCapacity slots.
// Callers that want clamping to be an error instead should build through
// core.Build, whose per-combinator validation rejects out-of-range
// capacities with an explanation before anything is constructed.
func NewReadCache(capacity int, inner core.Set) *ReadCache {
	n := 1
	for n < capacity && n < maxSpecCapacity {
		n <<= 1
	}
	return &ReadCache{inner: inner, slots: make([]rcSlot, n), mask: uint64(n - 1)}
}

// NewReadCacheOpts is NewReadCache plus the Options-borne cache knobs:
// CacheTTL enables entry expiry and CacheAdmission selects the admission
// policy. It panics on an unknown admission name — csdsbench and the spec
// layer validate the name first, so a panic here is a programming error in
// the caller, not user input. This is the constructor the registry uses.
func NewReadCacheOpts(capacity int, inner core.Set, o core.Options) *ReadCache {
	r := NewReadCache(capacity, inner)
	if o.CacheTTL > 0 {
		r.ttl = int64(o.CacheTTL)
		r.now = func() int64 { return time.Now().UnixNano() }
	}
	switch o.CacheAdmission {
	case "", AdmitAlways:
	case AdmitTinyLFU:
		r.sketch = newFreqSketch(len(r.slots))
	case AdmitWindow:
		r.door = newDoorkeeper(len(r.slots))
	default:
		panic(fmt.Sprintf("readcache: unknown admission policy %q (have %s, %s, %s)",
			o.CacheAdmission, AdmitAlways, AdmitTinyLFU, AdmitWindow))
	}
	return r
}

// SetClock replaces the TTL clock — a test hook (the settest TTL battery
// drives expiry deterministically with a fake clock). Call before any
// traffic; the clock must be monotone non-decreasing.
func (r *ReadCache) SetClock(now func() int64) {
	if r.ttl > 0 {
		r.now = now
	}
}

// expired reports whether e has outlived the TTL.
func (r *ReadCache) expired(e *rcEntry) bool {
	return r.ttl > 0 && r.now()-e.fillNs >= r.ttl
}

// admit decides whether key k may displace the probe-time resident entry
// (nil, expired, or k itself always admit). Consulted and maintained on
// the miss path only.
func (r *ReadCache) admit(k core.Key, victim *rcEntry) bool {
	switch {
	case r.sketch != nil:
		freq := r.sketch.touch(mix64(uint64(k)))
		if victim == nil || victim.key == k || r.expired(victim) {
			return true
		}
		return freq >= r.sketch.estimate(mix64(uint64(victim.key)))
	case r.door != nil:
		second := r.door.secondTouch(mix64(uint64(k)))
		if victim == nil || victim.key == k || r.expired(victim) {
			return true
		}
		return second
	}
	return true
}

// fill installs a fresh entry under the version guard (see the protocol
// comment above); v0 is the version snapshot taken before the inner read.
func (r *ReadCache) fill(c *core.Ctx, sl *rcSlot, k core.Key, v core.Value, v0 uint64) {
	sl.mu.Acquire(c.Stat())
	if sl.ver.Load() == v0 {
		e := &rcEntry{key: k, val: v}
		if r.ttl > 0 {
			e.fillNs = r.now()
		}
		sl.entry.Store(e)
		r.fills.Add(1)
		if st := c.Stat(); st != nil {
			st.RecordCacheFill()
		}
	}
	sl.mu.Release()
}

func (r *ReadCache) slot(k core.Key) *rcSlot {
	return &r.slots[r.slotIndex(k)]
}

// slotIndex is the index of k's slot.
func (r *ReadCache) slotIndex(k core.Key) int {
	return int(mix64(uint64(k)) & r.mask)
}

// Get implements core.Set: the hit path is one atomic load; the miss path
// is a version-guarded read-through fill.
func (r *ReadCache) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	sl := r.slot(k)
	e := sl.entry.Load()
	expired := false
	if e != nil && e.key == k {
		if !r.expired(e) {
			if st := c.Stat(); st != nil {
				st.RecordCacheHit()
			}
			return e.val, true
		}
		// Past the TTL: never served. Fall through to a re-read that
		// refreshes the entry in place (no admission check — the key just
		// proved it is still being read).
		expired = true
	}
	if st := c.Stat(); st != nil {
		st.RecordCacheMiss(expired)
	}
	v0 := sl.ver.Load()
	v, ok := r.inner.Get(c, k)
	if c != nil && c.SkipCacheFill {
		// Degraded mode (server overload): serve the inner read but do
		// not pay the fill lock or touch admission state. Refreshing an
		// expired resident is skipped too — the stale entry is already
		// unservable and updates still invalidate it.
		return v, ok
	}
	if ok && v0&1 == 0 {
		if expired || r.admit(k, e) {
			r.fill(c, sl, k, v, v0)
		} else if st := c.Stat(); st != nil {
			st.RecordCacheReject()
		}
	}
	return v, ok
}

// update runs an inner mutation inside the slot's writer critical
// section, invalidating first so no reader or racing fill can observe a
// pre-update mapping after the update takes effect.
func (r *ReadCache) update(c *core.Ctx, k core.Key, op func() bool) bool {
	sl := r.slot(k)
	sl.mu.Acquire(c.Stat())
	sl.ver.Add(1) // odd: update in flight, fills stand down
	if e := sl.entry.Load(); e != nil && e.key == k {
		sl.entry.Store(nil)
	}
	res := op()
	sl.ver.Add(1) // even again
	sl.mu.Release()
	return res
}

// Put implements core.Set. A successful Put only adds a mapping, but it
// still runs the invalidation protocol: a racing fill for a colliding key
// must see the version move.
func (r *ReadCache) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	return r.update(c, k, func() bool { return r.inner.Put(c, k, v) })
}

// Remove implements core.Set.
func (r *ReadCache) Remove(c *core.Ctx, k core.Key) bool {
	return r.update(c, k, func() bool { return r.inner.Remove(c, k) })
}

// Len reports the inner size (the cache holds no elements of its own).
func (r *ReadCache) Len() int { return r.inner.Len() }

// Capacity returns the rounded slot count.
func (r *ReadCache) Capacity() int { return len(r.slots) }

// Range implements core.Ranger by delegating to the inner structure (the
// cache holds no mappings of its own). It panics if the inner structure
// does not implement core.Ranger (every algorithm in this module does).
func (r *ReadCache) Range(f func(k core.Key, v core.Value) bool) {
	r.inner.(core.Ranger).Range(f)
}

// Scan implements core.Scanner by delegating to the inner structure's
// linearizable scan. The cache never holds a mapping the inner structure
// lacks (updates invalidate before their inner linearization point), so
// the inner scan's snapshot is a snapshot of the composite.
func (r *ReadCache) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	return r.inner.(core.Scanner).Scan(c, lo, hi, f)
}

// CursorNext implements core.Cursor by delegating to the inner
// structure's cursor; like Scan, the cache never holds a mapping the
// inner structure lacks, so inner pages are pages of the composite.
func (r *ReadCache) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	return r.inner.(core.Cursor).CursorNext(c, pos, hi, max, f)
}

// Fills returns how many Get misses filled a slot. Like everything else
// the cache maintains about itself, this shared counter lives on the miss
// path only: the hit path stays a bare atomic load. Per-operation hit and
// miss counts go to each context's private stats.Thread instead
// (CacheHits/CacheMisses — plain per-thread increments, no shared RMW),
// which the harness folds into the cache_hit_frac bench column.
func (r *ReadCache) Fills() uint64 { return r.fills.Load() }

// ReclaimAll implements core.Reclaimer by delegation to the inner
// structure (cached rcEntry boxes are plain values; the GC takes them).
func (r *ReadCache) ReclaimAll() {
	if rec, ok := r.inner.(core.Reclaimer); ok {
		rec.ReclaimAll()
	}
}
