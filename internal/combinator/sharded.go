package combinator

import "csds/internal/core"

// Sharded hash-partitions the key space over n independent inner
// instances. Every operation touches exactly one shard, chosen by a
// SplitMix64 hash of the key's aligned 64-key block (route), so shards
// share no mutable state and the composite is linearizable whenever the
// inner structure is: each operation's linearization point is its inner
// operation's.
//
// Hashing blocks rather than keys keeps the hash partition's two
// properties — no domain hint needed, any key pattern wider than a block
// spreads uniformly — and adds locality: a short ordered window lives on
// a few shards, which Scan and CursorNext visit in key order instead of
// merging all n. The paper's §6 birthday model is what makes this free:
// with a handful of threads and tens of parts, conflicts are negligible
// however keys are routed to parts.
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
	return s.shards[route(k, len(s.shards))]
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

// Scan implements core.Scanner. A window spanning no more blocks than
// there are shards is walked: its blocks are visited in ascending order,
// each through the owning shard's own linearizable scan clipped to the
// block, delivering straight to f — ascending by construction, no merge,
// no sort. A wider window touches every shard anyway and keeps
// collect-and-merge (core.MergeScan): one sub-snapshot per shard, the
// disjoint union sorted and replayed.
//
// Consistency is the same on both paths: every pull is one atomic
// sub-snapshot of one shard taken inside the call, the pulled windows are
// disjoint, so no key is visited twice and every reported presence or
// absence was true at some instant inside the call (segment = block pull
// on the walk, shard on the merge). The walk may pull one shard more
// than once per call — at different instants, for different blocks.
func (s *Sharded) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	if lo >= hi {
		return true
	}
	// Arithmetic shifts, so negative keys floor to their block like route.
	first, last := lo>>routeBlockBits, (hi-1)>>routeBlockBits
	if last-first >= core.Key(len(s.shards)) {
		finished, _ := core.MergeScan(c, s.shards, lo, hi, nil, f)
		return finished
	}
	for b := first; b <= last; b++ {
		blo, bhi := max(lo, b<<routeBlockBits), hi
		if b < last {
			bhi = (b + 1) << routeBlockBits
		}
		if !s.shard(blo).(core.Scanner).Scan(c, blo, bhi, f) {
			return false
		}
	}
	return true
}

// blockAt is the partition StreamDrainNext walks: the shard owning pos's
// block and the block's end (the last block has no representable end;
// KeyMax bounds every window).
func (s *Sharded) blockAt(pos core.Key) (core.Cursor, core.Key) {
	end := core.Key(core.KeyMax)
	if last := pos | (1<<routeBlockBits - 1); last != core.KeyMax {
		end = last + 1
	}
	return s.shard(pos).(core.Cursor), end
}

// CursorNext implements core.Cursor by draining blocks in key order from
// pos (core.StreamDrainNext): each block is one bounded pull on its
// owning shard's cursor, delivered straight to f, until the budget fills
// — ⌈max/keys per block⌉+1 pulls on dense data, not one per shard. Empty
// blocks cost a pull each, so after len(shards) pulls with budget still
// unspent (sparse data under a huge hi) the same page finishes with the
// lazy k-way merge over all shards (core.StreamMergeNext) from the
// position reached: a page never costs more than twice the merge's
// pulls.
//
// The consistency contract is Scan's: every pull is one atomic
// sub-snapshot of one shard inside the call, windows are disjoint and
// ascending, a shard may be pulled more than once. Tokens stay bare key
// positions — no per-shard or per-block state crosses pages.
func (s *Sharded) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	next, done, unspent := core.StreamDrainNext(c, s.blockAt, pos, hi, max, len(s.shards), f)
	if unspent == 0 {
		return next, done
	}
	next, done, _ = core.StreamMergeNext(c, s.shards, next, hi, unspent, nil, f)
	return next, done
}
