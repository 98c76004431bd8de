// Package core defines the concurrent-search-data-structure abstraction of
// the paper (Section 2.2) — the set interface with get/put/remove — plus
// the per-thread execution context every algorithm in this repository
// operates under, and a layered algorithm factory: a registry mapping
// algorithm names to constructors (registry.go) and, on top of it, a
// composite-specification grammar with structure combinators such as
// sharded(16,list/lazy) (spec.go).
//
// A Ctx plays the role of ASCYLIB's thread-local initialization: Go has no
// thread-local storage and goroutines migrate between OS threads, so the
// per-thread pieces (PRNG stream, statistics slot, EBR record, fault
// injector) travel explicitly with each call.
package core

import (
	"math"
	"time"

	"csds/internal/ebr"
	"csds/internal/fault"
	"csds/internal/htm"
	"csds/internal/stats"
	"csds/internal/xrand"
)

// Key is the 64-bit key type of the paper's workloads. The extreme values
// math.MinInt64 and math.MaxInt64 are reserved for the sentinel nodes of
// list-based structures and must not be inserted.
type Key = int64

// Value is the 64-bit value type; the paper notes larger values are handled
// by storing pointers, which is exactly what a Go interface value or
// pointer-sized payload would do.
type Value = int64

// Sentinel keys (reserved).
const (
	KeyMin Key = math.MinInt64
	KeyMax Key = math.MaxInt64
)

// Set is the search data structure interface: "a simple base interface,
// consisting of three operations" (§2.2). All implementations in this
// module are linearizable.
type Set interface {
	// Get returns the value associated with k, if present.
	Get(c *Ctx, k Key) (Value, bool)
	// Put inserts (k, v) if k is absent and reports whether it inserted;
	// it does not overwrite an existing entry (the paper's semantics).
	Put(c *Ctx, k Key, v Value) bool
	// Remove deletes k's entry and reports whether it was present.
	Remove(c *Ctx, k Key) bool
	// Len counts the elements; linear and not linearizable with respect
	// to concurrent updates — intended for quiesced verification.
	Len() int
}

// Ranger is an optional Set extension: iteration over the current
// mappings. Ordered structures (lists, skip lists, BSTs, range
// partitions) visit keys in ascending order; hash-partitioned structures
// visit them in arbitrary order. Iteration stops early when f returns
// false. Like Len, Range is linear and not linearizable with respect to
// concurrent updates — it is intended for quiesced verification and for
// migration of frozen partitions (elastic resharding), where the caller
// guarantees no concurrent writers.
type Ranger interface {
	Range(f func(k Key, v Value) bool)
}

// Resizable is an optional Set extension implemented by elastic
// composites: the partition width can be changed online, concurrently
// with readers and writers, without losing linearizability.
type Resizable interface {
	// Resize repartitions the structure over width inner instances. It
	// serializes with other resizes; reads and writes proceed
	// concurrently (writes to a shard being migrated briefly wait, and
	// that wait surfaces in c's lock-wait metrics).
	Resize(c *Ctx, width int) error
	// Width reports the current partition width.
	Width() int
}

// Ctx is the per-worker context. Exactly one goroutine may use a Ctx at a
// time.
type Ctx struct {
	// ID is the worker index (0-based).
	ID int
	// Rng is the worker's private generator.
	Rng *xrand.Rng
	// Stats is the worker's metric slot; may be nil (no recording).
	Stats *stats.Thread
	// Epoch is the worker's EBR record; may be nil (GC-only reclamation).
	Epoch *ebr.Record
	// Fault is the worker's deterministic fault injector; nil means no
	// faults. Every injected adversary reaches structure and combinator
	// code through it — the paper's delayed lock holder (cs.delay, via
	// InCS) and multiprogramming aborts (htm.abort, via Injector) as
	// much as the chaos battery's points.
	Fault *fault.Injector
	// SkipCacheFill, when set, tells read-through caches not to admit new
	// entries on miss (served hits are unaffected) — the server's degraded
	// mode flips it under sustained overload so misses stop paying the
	// fill lock on top of the inner traversal.
	SkipCacheFill bool
}

// NewCtx builds a self-contained context for worker id, with its own RNG
// stream and stats slot. Harness code usually builds Ctxs by hand to point
// Stats at a shared slice; this constructor serves examples and tests.
func NewCtx(id int) *Ctx {
	return &Ctx{
		ID:    id,
		Rng:   xrand.New(uint64(id)*0x9e3779b97f4a7c15 + 1),
		Stats: &stats.Thread{},
	}
}

// Stat returns the stats slot, tolerating a nil context.
func (c *Ctx) Stat() *stats.Thread {
	if c == nil {
		return nil
	}
	return c.Stats
}

// InCS is called by blocking write phases while their locks are held: it
// draws cs.delay from the worker's injector (Figure 9's adversary — a
// worker descheduled mid-write), tolerating nil. One load and one branch
// without a plan.
func (c *Ctx) InCS() {
	if c != nil && c.Fault != nil {
		c.Fault.Delay(fault.CSDelay)
	}
}

// Injector returns the worker's fault injector, tolerating a nil context
// (a nil injector never fires).
func (c *Ctx) Injector() *fault.Injector {
	if c == nil {
		return nil
	}
	return c.Fault
}

// RecordRestarts forwards an operation's restart count, tolerating nil.
func (c *Ctx) RecordRestarts(n int) {
	if c != nil && c.Stats != nil {
		c.Stats.RecordRestarts(n)
	}
}

// EpochEnter begins an EBR critical region if a record is attached.
func (c *Ctx) EpochEnter() {
	if c != nil && c.Epoch != nil {
		c.Epoch.Enter()
	}
}

// EpochExit ends the EBR critical region.
func (c *Ctx) EpochExit() {
	if c != nil && c.Epoch != nil {
		c.Epoch.Exit()
	}
}

// Retire hands an unlinked node to EBR (no-op without a record: the GC
// reclaims it). fn, when non-nil, runs once the node's grace period has
// elapsed — the structure's reclaim callback, which poisons the node and
// returns it to its typed Pool. A nil fn leaves reclamation to the GC
// (the deliberate mode for nodes that may still be referenced through
// helping descriptors; see DESIGN.md).
func (c *Ctx) Retire(ptr any, fn func(any)) {
	if c != nil && c.Epoch != nil {
		if fn != nil && c.Fault.Fire(fault.RetireDelay) {
			// Chaos plane: the reclaim callback runs late (at reclaim
			// time, wherever the flush happens), not the retirement.
			d, inner := c.Fault.Duration(fault.RetireDelay), fn
			fn = func(p any) { fault.Spin(d); inner(p) }
		}
		c.Epoch.Retire(ptr, fn)
		if c.Stats != nil {
			c.Stats.Retires++
		}
	}
}

// Pooled reports whether this context runs in EBR + pooling mode:
// structures consult it (via their own pooled flag or directly) before
// recycling buffers whose safety does not depend on EBR, so the GC-only
// ablation stays a true no-pooling baseline.
func (c *Ctx) Pooled() bool { return c != nil && c.Epoch != nil }

// Options configures a constructor. The zero value is a sensible default
// (locking mode, no EBR, structure-specific defaults).
type Options struct {
	// ElideAttempts enables HTM lock elision with this speculation budget
	// when > 0 (the paper's TSX experiments use 5).
	ElideAttempts int
	// Buckets sets a hash table's bucket count; 0 derives it from
	// ExpectedSize at load factor 1 (the paper's configuration).
	Buckets int
	// ExpectedSize hints the steady-state element count (hash sizing,
	// skip-list level bound).
	ExpectedSize int
	// KeySpan hints the exclusive upper bound of the dense key domain
	// workloads draw from ([0, KeySpan)); 0 derives 2*ExpectedSize (the
	// paper's key-space convention). Range-partitioning combinators use
	// it as their partition domain.
	KeySpan Key
	// MaxLevel caps skip-list height; 0 derives it from ExpectedSize.
	MaxLevel int
	// Domain, when non-nil, makes Remove retire unlinked nodes through
	// contexts that carry an EBR record of this domain.
	Domain *ebr.Domain
	// CacheTTL bounds the staleness of read-through cache entries (the
	// readcache combinator): entries older than this are never served and
	// are refreshed in place on the next get. 0 disables expiry. Updates
	// through the cache invalidate immediately regardless — TTL matters
	// when the inner structure is also mutated out of band (a replica
	// applying remote writes).
	CacheTTL time.Duration
	// CacheAdmission names the read-through cache's admission policy:
	// "always" (default, every miss fills), "tinylfu" (frequency-sketch
	// admission: a miss only displaces the cached entry if the new key has
	// been seen at least as often in the recent window), or "window" (a
	// doorkeeper: only a second miss for the same key within the window
	// admits — one-touch traffic such as scans never evicts a hot entry).
	CacheAdmission string
}

// Region builds the htm.Region for these options (Attempts 0 = plain
// locking).
func (o Options) Region() htm.Region { return htm.Region{Attempts: o.ElideAttempts} }
