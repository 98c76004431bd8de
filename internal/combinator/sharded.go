package combinator

import "csds/internal/core"

// Sharded hash-partitions the key space over n independent inner
// instances. Every operation touches exactly one shard, chosen by a
// SplitMix64 hash of the key, so shards share no mutable state and the
// composite is linearizable whenever the inner structure is: each
// operation's linearization point is its inner operation's.
//
// Sharding multiplies the paper's structures horizontally: n lazy lists of
// size S/n serve like one list of size S but with 1/n the traversal length
// and 1/n the per-lock contention — the same engineering lever the paper's
// hash table (a lock per bucket) applies at bucket granularity.
type Sharded struct {
	shards []core.Set
	// combiners are the per-shard flat-combining points for contended
	// single-shard write batches (see batch.go); uncontended they cost
	// one trylock and one pointer load per engaged batch, nothing per
	// point op.
	combiners []core.Combiner
}

// NewSharded builds an n-way hash-sharded composite over inner instances.
// The size hints in o describe the composite; each shard receives an n-th.
func NewSharded(n int, inner func(core.Options) core.Set, o core.Options) *Sharded {
	n = clampParts(n)
	so := splitOptions(o, n)
	shards := make([]core.Set, n)
	for i := range shards {
		shards[i] = inner(so)
	}
	return &Sharded{shards: shards, combiners: make([]core.Combiner, n)}
}

// shard routes a key to its instance.
func (s *Sharded) shard(k core.Key) core.Set {
	return s.shards[indexOf(mix64(uint64(k)), len(s.shards))]
}

// Get implements core.Set.
func (s *Sharded) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	return s.shard(k).Get(c, k)
}

// Put implements core.Set.
func (s *Sharded) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	return s.shard(k).Put(c, k, v)
}

// Remove implements core.Set.
func (s *Sharded) Remove(c *core.Ctx, k core.Key) bool {
	return s.shard(k).Remove(c, k)
}

// Len sums the shard sizes (like the inner Lens, quiesced-only).
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Shards exposes the partition width (for tests and stats labeling).
func (s *Sharded) Shards() int { return len(s.shards) }

// Range implements core.Ranger by visiting shards in index order —
// arbitrary key order overall (the partition is hashed).
func (s *Sharded) Range(f func(k core.Key, v core.Value) bool) {
	rangeParts(s.shards, f)
}

// Scan implements core.Scanner by collect-and-merge (core.MergeScan):
// every shard contributes one atomic sub-snapshot through its own
// linearizable scan, and the union — disjoint by construction, so
// duplicate-free — replays in ascending key order after a sort. Each
// key's reported state is its true state at the instant its shard was
// scanned, inside the call window (segment = shard).
func (s *Sharded) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	if lo >= hi {
		return true
	}
	finished, _ := core.MergeScan(c, s.shards, lo, hi, nil, f)
	return finished
}

// CursorNext implements core.Cursor by lazy k-way streaming merge over
// the shards' own cursors (core.StreamMergeNext): each shard is pulled
// in small refill chunks (~max/k keys, one atomic sub-snapshot per
// pull) as the heap merge consumes its head, and delivery stops exactly
// at the page budget — a page materializes about one page worth of
// keys, not k pages (the k× overcollect of the old eager merge). A
// single key position still resumes every shard, so tokens carry no
// per-shard state; buffered overshoot is discarded and re-fetched by
// position.
func (s *Sharded) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	next, done, _ := core.StreamMergeNext(c, s.shards, pos, hi, max, nil, f)
	return next, done
}
