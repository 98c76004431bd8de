// Node pooling layer of the memory-reclamation overhaul (DESIGN.md,
// "Pooling contract"). EBR decides *when* an unlinked node is unreachable;
// the pools decide *where* it goes next: back to a typed free-list instead
// of to the garbage collector. Each structure package owns one Pool per
// node type, the reclaim callback it passes to Ctx.Retire poisons the dead
// node and Puts it there, and the structure's constructor path Gets before
// allocating. Pools are package-level (not per-instance) so nodes from a
// torn-down instance — an elastic shard retired by a resize — feed the
// instances that replace it.
package core

import (
	"math"
	"sync"
)

// Poison sentinels: reclaim callbacks overwrite a dead node's key and
// value with these before pooling it, so a traversal that reaches a
// reclaimed node observes an impossible mapping instead of a plausible
// stale one. Like KeyMin/KeyMax they are reserved and must not be
// inserted; the settest poisoning battery asserts reads and scans never
// return them.
const (
	PoisonKey   Key   = math.MinInt64 + 0xDEAD
	PoisonValue Value = math.MinInt64 + 0xBEEF
)

// Pool is a typed free-list seeded by a sync.Pool arena: Get returns a
// previously reclaimed node or nil (caller allocates fresh), Put hands a
// poisoned node back. The sync.Pool backing means unused pooled nodes
// still melt away under GC pressure — pooling is a fast path, not a leak.
// Hit/miss counts land in the calling worker's stats slot, surfacing as
// the pool_hit_frac bench column.
type Pool struct {
	p sync.Pool
}

// Get pops a pooled node, or returns nil if the free-list is empty.
func (p *Pool) Get(c *Ctx) any {
	v := p.p.Get()
	if c != nil && c.Stats != nil {
		if v != nil {
			c.Stats.PoolHits++
		} else {
			c.Stats.PoolMisses++
		}
	}
	return v
}

// Put returns a node to the free-list. The caller must have poisoned it
// and severed its links: a pooled node is re-published by the next
// inserter, so anything it still points at would leak or confuse.
func (p *Pool) Put(v any) { p.p.Put(v) }

// Reclaimer is implemented by structures that can hand their entire node
// population back to the pools in one sweep. The caller must guarantee
// quiescence on the instance (no concurrent operations and no future
// ones) — the eager path elastic resize uses on a superseded shard map:
// once the superseded epoch's grace period elapses, every shard is
// ReclaimAll'd instead of waiting for the GC to trace the dead map.
// Composites delegate to their parts.
type Reclaimer interface {
	ReclaimAll()
}
