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
	"sync/atomic"
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

// Drop undoes the hit Get just counted, as a miss: the caller found the
// pooled node unfit for its request (a tower too short) and leaves it to
// the GC, so the allocation falls through to new after all.
func (p *Pool) Drop(c *Ctx) {
	if c != nil && c.Stats != nil {
		c.Stats.PoolHits--
		c.Stats.PoolMisses++
	}
}

// Put returns a node to the free-list. The caller must have poisoned it
// and severed its links: a pooled node is re-published by the next
// inserter, so anything it still points at would leak or confuse.
func (p *Pool) Put(v any) { p.p.Put(v) }

// NewTower allocates a skip-list node and its tower of height links as
// one object: the links sit right after the node, so a hop's key, mark
// and level-0 link lie in one object (one cache line for a 64-byte
// node) instead of costing a second, dependent miss on a separately
// allocated tower. The tower's
// capacity is the smallest of the classes 1, 2, 4, 8 and 32 that holds
// height — five shapes, so the common short nodes keep a small size
// class — and a pooled node may be resliced to any height up to it.
// height must lie in [1, 32].
func NewTower[N any](height int) (*N, []atomic.Pointer[N]) {
	switch {
	case height <= 1:
		x := new(struct {
			n N
			t [1]atomic.Pointer[N]
		})
		return &x.n, x.t[:height]
	case height <= 2:
		x := new(struct {
			n N
			t [2]atomic.Pointer[N]
		})
		return &x.n, x.t[:height]
	case height <= 4:
		x := new(struct {
			n N
			t [4]atomic.Pointer[N]
		})
		return &x.n, x.t[:height]
	case height <= 8:
		x := new(struct {
			n N
			t [8]atomic.Pointer[N]
		})
		return &x.n, x.t[:height]
	default:
		x := new(struct {
			n N
			t [32]atomic.Pointer[N]
		})
		return &x.n, x.t[:height]
	}
}

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
