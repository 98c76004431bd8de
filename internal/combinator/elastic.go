package combinator

import (
	"fmt"
	"sync"
	"sync/atomic"

	"csds/internal/core"
	"csds/internal/locks"
)

// Elastic is a block-hashed partition (like sharded(N,·)) whose width can
// be changed online: Resize repartitions the keys over a new shard count
// while readers and writers keep running. It is the combinator layer's
// answer to shifting load — a deployment can start at sharded(1) cost and
// grow to sharded(64) throughput without a rebuild, the ROADMAP's elastic
// resharding item.
//
// The design is an epoch-swapped copy-on-write shard map, in the same
// spirit as the paper's COW list but at partition granularity: the shard
// map is immutable, operations route through one atomic pointer load, and
// a resize builds a whole new map and publishes it with a single atomic
// swap. The paper's thesis (blocking structures are practically wait-free
// because waiting is rare) sets the bar for the steady state: the read
// path adds one atomic pointer load and one flag load over Partition and
// never waits, resizing or not.
//
// Resize protocol. Each shard carries a frozen flag and an in-flight
// writer gate (a counter). The migrator walks the old map shard by shard:
//
//  1. freeze: set the shard's frozen flag;
//  2. drain: wait until the writer gate reads zero — writers publish
//     themselves on the gate before checking frozen, so a zero gate after
//     freeze means no write is (or ever will be) in flight on the shard;
//  3. copy: iterate the now-immutable shard (core.Ranger) into the new
//     map, re-routing every key.
//
// After all shards are copied, one atomic store publishes the new map;
// old maps stay frozen forever, so operations that raced the swap detect
// staleness and retry on the current map.
//
// Per-operation protocol:
//
//   - Writers (Put/Remove) enter the shard's gate, then check frozen. Not
//     frozen: the inner operation proceeds and the migrator cannot pass
//     the drain until it completes. Frozen: the writer leaves the gate
//     and waits for the epoch to advance (locks.WaitWhile, so the wait
//     surfaces in the paper's fine-grained lock-wait metrics — this is
//     the only wait elasticity ever imposes, and only during a resize),
//     then retries on the published map.
//   - Readers never wait. A reader checks the shard's frozen flag after
//     its inner Get: not frozen means the read ran entirely before any
//     migration of the shard, and frozen with the map still current means
//     no post-migration update can exist yet (writers are parked), so in
//     both cases the result is current. Only a reader that raced a
//     completed swap retries, against the new map.
//
// Linearizability: away from resizes, operations linearize at their inner
// operation, exactly like Partition. Around a resize, writes linearize at
// their inner operation (always on a shard the migrator has not yet
// copied, or on the new map after the swap), and reads linearize at the
// inner Get or at their map re-check, as argued above.
type Elastic struct {
	inner func(core.Options) core.Set
	opts  core.Options // composite-level hints; re-split on every resize

	cur      atomic.Pointer[epartition]
	resizeMu sync.Mutex // serializes resizes; never touched by Get/Put/Remove
	resizes  atomic.Uint64
}

// epartition is one immutable shard-map epoch: its block-hashed router
// and shards. sets lists the shards' instances in shard order — the
// shape the core merge primitives take, built once with the map instead
// of once per scan or page.
type epartition struct {
	r      router
	shards []eshard
	sets   []core.Set
}

// eshard is one shard of an epoch: the inner instance plus the freeze
// flag and writer gate of the resize protocol. Padded so that adjacent
// shards' gates do not share a cache line.
type eshard struct {
	set     core.Set
	frozen  atomic.Bool
	writers atomic.Int64
	_       [32]byte
}

// route picks the shard for a key through the package's one router, so
// point ops, the batch groupers, scans and migration's re-route agree
// with each other and with sharded(N,·).
func (p *epartition) route(k core.Key) *eshard {
	return &p.shards[p.r.index(k)]
}

// NewElastic builds an elastic composite with the given initial width.
// The inner constructor must produce sets implementing core.Ranger and
// core.Scanner (every algorithm registered in this module does both):
// migration iterates frozen shards to re-route their keys, and the
// composite's Scan collects per-shard sub-snapshots.
func NewElastic(n int, inner func(core.Options) core.Set, o core.Options) (*Elastic, error) {
	e := &Elastic{inner: inner, opts: o}
	p := e.buildPartition(clampParts(n))
	if _, ok := p.shards[0].set.(core.Ranger); !ok {
		return nil, fmt.Errorf("combinator: elastic needs an inner structure that implements core.Ranger (shard migration iterates frozen shards); %T does not", p.shards[0].set)
	}
	if _, ok := p.shards[0].set.(core.Scanner); !ok {
		return nil, fmt.Errorf("combinator: elastic needs an inner structure that implements core.Scanner (composite scans collect per-shard snapshots); %T does not", p.shards[0].set)
	}
	if _, ok := p.shards[0].set.(core.Cursor); !ok {
		return nil, fmt.Errorf("combinator: elastic needs an inner structure that implements core.Cursor (composite cursor pages merge per-shard pages); %T does not", p.shards[0].set)
	}
	e.cur.Store(p)
	return e, nil
}

// buildPartition constructs a fresh n-way shard map from the composite's
// original (undivided) option hints.
func (e *Elastic) buildPartition(n int) *epartition {
	so := splitOptions(e.opts, n)
	p := &epartition{r: router{n: n}, shards: make([]eshard, n), sets: make([]core.Set, n)}
	for i := range p.shards {
		p.sets[i] = e.inner(so)
		p.shards[i].set = p.sets[i]
	}
	return p
}

// Get implements core.Set. The hot path is one map load, the inner Get,
// and one flag load; it never waits, even during a resize.
func (e *Elastic) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	// The bracket must open before the map load: a superseded map is
	// retired eagerly (see Resize), so holding one without an active
	// epoch would race its reclamation.
	c.EpochEnter()
	defer c.EpochExit()
	for {
		p := e.cur.Load()
		sh := p.route(k)
		v, ok := sh.set.Get(c, k)
		if !sh.frozen.Load() || e.cur.Load() == p {
			// Unfrozen: the read finished before any migration of this
			// shard. Frozen but unswapped: the shard is immutable and no
			// newer write exists anywhere yet. Either way, current.
			return v, ok
		}
		// Frozen and superseded: the value may predate a post-swap
		// update. Retry on the published map.
	}
}

// write runs one mutation under the shard gate protocol. The bracket
// pins the loaded shard map against eager resize reclamation, like Get.
func (e *Elastic) write(c *core.Ctx, k core.Key, op func(core.Set) bool) bool {
	c.EpochEnter()
	defer c.EpochExit()
	for {
		p := e.cur.Load()
		sh := p.route(k)
		sh.writers.Add(1)
		if !sh.frozen.Load() {
			res := op(sh.set)
			sh.writers.Add(-1)
			return res
		}
		sh.writers.Add(-1)
		// The migrator owns this shard until the next map is published.
		// Park (instrumented: the paper's metrics must see this wait),
		// then retry on the published map.
		locks.WaitWhile(c.Stat(), func() bool { return e.cur.Load() == p })
	}
}

// Put implements core.Set.
func (e *Elastic) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	return e.write(c, k, func(s core.Set) bool { return s.Put(c, k, v) })
}

// Remove implements core.Set.
func (e *Elastic) Remove(c *core.Ctx, k core.Key) bool {
	return e.write(c, k, func(s core.Set) bool { return s.Remove(c, k) })
}

// Len sums the shard sizes of the current map (quiesced-only, like the
// inner Lens).
func (e *Elastic) Len() int {
	p := e.cur.Load()
	n := 0
	for i := range p.shards {
		n += p.shards[i].set.Len()
	}
	return n
}

// Range implements core.Ranger over the current map's shards, in index
// order — arbitrary key order overall (the partition is hashed).
func (e *Elastic) Range(f func(k core.Key, v core.Value) bool) {
	rangeParts(e.cur.Load().sets, f)
}

// scanEpochRetries bounds how many superseded shard maps a scan abandons
// before it pins the map by briefly excluding resizes.
const scanEpochRetries = 4

// current is the staleness witness scans and pages re-check after every
// pull from shard i of p: a frozen shard under a superseded map means
// the mappings just collected may predate post-swap updates (false). A
// frozen shard under the *current* map is merely mid-migration: it is
// immutable and still authoritative, because its writers are parked.
func (e *Elastic) current(p *epartition, i int) bool {
	return !p.shards[i].frozen.Load() || e.cur.Load() == p
}

// Scan implements core.Scanner with the same old-then-new epoch
// discipline as Get, at scan granularity: collect every shard of the
// loaded map through its own linearizable scan (core.MergeScan) and
// re-check the staleness witness after each shard — a stale collection
// is discarded before anything is delivered and the scan restarts on
// the published map. A consistent pass replays the disjoint union block
// by block in ascending key order, exactly like Partition's wide-window
// path. (Partition's block walk delivers as it pulls; a stale-epoch
// abort must have delivered nothing, so Elastic keeps collect-and-replay
// at every window width.) Discarded epochs count as scan retries.
//
// Under pathological resize churn the optimistic pass could retry
// forever, so after scanEpochRetries discarded epochs the scan takes
// resizeMu — pausing resizes, never operations — and scans the then
// immovable current map. Correctness across a concurrent Resize needs no
// such pause: every reported state was read, within the call window,
// from the shard that owned the key at that instant.
func (e *Elastic) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	if lo >= hi {
		return true
	}
	c.EpochEnter()
	defer c.EpochExit()
	for attempt := 0; attempt < scanEpochRetries; attempt++ {
		p := e.cur.Load()
		finished, aborted := core.MergeScan(c, p.sets, p.r.segment, lo, hi, func(i int) bool { return e.current(p, i) }, f)
		if !aborted {
			c.RecordScanRetries(attempt)
			return finished
		}
	}
	// Pin the shard map: resizes wait (briefly, and only for this one
	// scan — an administrative pause, like the migrator's own drain),
	// readers and writers do not. The pause now spans the replay too
	// (collect and replay are one core call); f may not call back into
	// the structure anyway, so all a slow f can delay is a resize.
	e.resizeMu.Lock()
	defer e.resizeMu.Unlock()
	c.RecordScanRetries(scanEpochRetries)
	p := e.cur.Load()
	finished, _ := core.MergeScan(c, p.sets, p.r.segment, lo, hi, nil, f)
	return finished
}

// CursorNext implements core.Cursor by lazy streaming merge (not
// Partition's block drain, for the reason given at Scan) under the same
// old-then-new epoch discipline as Scan, at refill granularity:
// the shards of the loaded map are pulled in small bounded chunks
// (core.StreamMergeNext — each pull one atomic sub-snapshot of its
// shard, the heap merge stopping exactly at the page budget instead of
// collecting max keys from every shard), and the staleness witness is
// re-checked after every pull. The merge delivers only after its last
// pull, so a stale page is discarded whole and retried on the published
// map; a consistent page replays ascending.
//
// The token is a bare key position, so it names no shard map at all:
// a resize between two pages just means the next page streams from the
// new partition — resume positions survive any number of Resizes, which
// is exactly why the merge keeps no per-shard state across pages. After
// scanEpochRetries discarded epochs the page pins the map by briefly
// excluding resizes (resizeMu pauses migrations, never operations),
// mirroring Scan's fallback.
func (e *Elastic) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	if pos >= hi {
		return hi, true
	}
	c.EpochEnter()
	defer c.EpochExit()
	for attempt := 0; attempt < scanEpochRetries; attempt++ {
		p := e.cur.Load()
		next, done, aborted := core.StreamMergeNext(c, p.sets, pos, hi, max, func(i int) bool { return e.current(p, i) }, f)
		if !aborted {
			c.RecordCursorRetries(attempt)
			return next, done
		}
	}
	// Pin the shard map: resizes wait briefly for this one bounded
	// page; readers and writers never do.
	e.resizeMu.Lock()
	defer e.resizeMu.Unlock()
	c.RecordCursorRetries(scanEpochRetries)
	next, done, _ := core.StreamMergeNext(c, e.cur.Load().sets, pos, hi, max, nil, f)
	return next, done
}

// Width implements core.Resizable: the current shard count.
func (e *Elastic) Width() int { return len(e.cur.Load().shards) }

// Resizes reports how many resizes have been published (for tests and
// width-over-time reporting).
func (e *Elastic) Resizes() uint64 { return e.resizes.Load() }

// Resize implements core.Resizable: repartition over n shards. Resizes
// serialize with each other; reads proceed untouched and writes to a
// shard mid-migration briefly wait (surfacing in c's lock-wait metrics).
// Keys written to not-yet-migrated shards during the resize are picked up
// when their shard is copied; keys written after the swap land in the new
// map directly — no update is ever lost.
func (e *Elastic) Resize(c *core.Ctx, n int) error {
	// Enforce the same ceiling the spec grammar validates at build time:
	// a runtime resize must not be the loophole that allocates millions
	// of inner instances.
	if n > maxPartitions {
		return fmt.Errorf("combinator: elastic resize width %d exceeds %d inner instances — likely a typo (each shard is a whole structure instance)", n, maxPartitions)
	}
	n = clampParts(n)
	e.resizeMu.Lock()
	defer e.resizeMu.Unlock()
	old := e.cur.Load()
	if len(old.shards) == n {
		return nil
	}
	next := e.buildPartition(n)
	for i := range old.shards {
		sh := &old.shards[i]
		sh.frozen.Store(true)
		// Drain: writers enter the gate before checking frozen, so once
		// the gate reads zero, every writer that could still touch this
		// shard has either completed or will observe frozen and park.
		// (The migrator's own drain wait is an admin cost, not a
		// workload metric, so it records no stats.)
		locks.WaitWhile(nil, func() bool { return sh.writers.Load() != 0 })
		// Copy the now-immutable shard into the new map. Concurrent
		// readers keep scanning the old shard meanwhile; it still holds
		// everything they can legitimately observe.
		sh.set.(core.Ranger).Range(func(k core.Key, v core.Value) bool {
			next.route(k).set.Put(c, k, v)
			return true
		})
	}
	// Publish: one atomic swap makes the new map current. Old maps stay
	// frozen forever, so stragglers holding them detect and retry.
	e.cur.Store(next)
	e.resizes.Add(1)
	// Eager reclamation: the superseded map is unreachable for new
	// operations the moment the swap lands, and every straggler holding
	// it does so inside an epoch bracket — so retire it through the
	// caller's record and let the grace period, not the GC, decide when
	// its shards' nodes feed the pools. Shards whose structures cannot
	// pool (and the map skeleton itself) simply fall to the GC when the
	// callback drops the last reference.
	c.Retire(old, func(v any) { reclaimParts(v.(*epartition).sets) })
	return nil
}
