package combinator

import (
	"math/bits"

	"csds/internal/core"
)

// Partition spreads the key space over n independent inner instances.
// Every operation touches exactly one part, chosen by the partition's
// router, so parts share no mutable state and the composite is
// linearizable whenever the inner structure is: each operation's
// linearization point is its inner operation's.
//
// How keys are routed is policy, not mechanism — the paper's §6 birthday
// model is what makes that true: with a handful of threads and tens of
// parts, conflicts are negligible however keys map to parts. So the two
// spec names are two routers over this one type:
//
//   - sharded(N,·) hashes each key's aligned 64-key block (route): no
//     domain hint needed, any key pattern wider than a block spreads
//     uniformly, and a short ordered window lives on a few parts.
//   - striped(N,·) cuts the partition domain into N equal contiguous
//     stripes, in order (see NewStriped): adjacent keys share a part and
//     any window, however wide, is a run of consecutive stripes.
//
// Either way the router also names the segments — blocks or stripes —
// that Scan and CursorNext walk in key order, and the batch paths group
// by it. Partitioning multiplies the paper's structures horizontally: n
// lazy lists of size S/n serve like one list of size S but with 1/n the
// traversal length and 1/n the per-lock contention — the lever the
// paper's hash table (a lock per bucket) applies at bucket granularity.
type Partition struct {
	parts []core.Set
	r     router
	// combiners are the per-part flat-combining points for contended
	// single-part write batches (see batch.go); uncontended they cost one
	// trylock and one pointer load per engaged batch, nothing per point
	// op.
	combiners []core.Combiner
}

// NewSharded builds an n-way block-hashed partition over inner
// instances. The size hints in o describe the composite; each part
// receives an n-th.
func NewSharded(n int, inner func(core.Options) core.Set, o core.Options) *Partition {
	return newPartition(router{n: clampParts(n)}, inner, o)
}

// NewStriped builds an n-way range partition over inner instances. The
// partition domain matters: the paper's workloads draw dense keys from
// [1, KeySpace], so dividing the whole int64 line would funnel every
// real key into one stripe. The domain is therefore [0, Options.KeySpan)
// when that hint is set (the harness fills it from the workload's key
// space), else [0, 2*ExpectedSize) (the paper's KeySpace convention),
// and keys outside it clamp to the first/last stripe — still a total,
// order-preserving map over all of int64. Without either hint the domain
// falls back to the full signed range. A width wider than the domain
// would leave trailing stripes unreachable, so the width is clamped to
// the span; Parts reports the clamped width.
func NewStriped(n int, inner func(core.Options) core.Set, o core.Options) *Partition {
	n = clampParts(n)
	lo, hi := core.Key(core.KeyMin), core.Key(core.KeyMax)
	switch {
	case o.KeySpan > 0:
		lo, hi = 0, o.KeySpan
	case o.ExpectedSize > 0:
		lo, hi = 0, core.Key(2*o.ExpectedSize)
	}
	span := uint64(hi) - uint64(lo) // exact even without overflow
	if span < uint64(n) {
		n = int(span)
	}
	per := (span-1)/uint64(n) + 1 // ceil(span/n), overflow-safe
	return newPartition(router{n: n, lo: lo, per: per}, inner, o)
}

func newPartition(r router, inner func(core.Options) core.Set, o core.Options) *Partition {
	so := splitOptions(o, r.n)
	parts := make([]core.Set, r.n)
	for i := range parts {
		parts[i] = inner(so)
	}
	return &Partition{parts: parts, r: r, combiners: make([]core.Combiner, r.n)}
}

// router is the one routing decision of every partition in the package:
// Partition's point ops, walks and batch groupers, and each of Elastic's
// shard maps. per == 0 selects block hashing over n parts; otherwise key
// k belongs to stripe (k-lo)/per, clamped to [0, n). A plain struct with
// a branch, so the point path pays no indirect call.
type router struct {
	n   int
	lo  core.Key // range mode: the domain's first key
	per uint64   // range mode: domain keys per stripe; 0 = block hashing
}

// index is the part that owns k. Under range routing that is a clamped
// linear map from the partition domain onto stripe indices, monotone
// over all of int64 (the unsigned difference is exact even where the
// signed one wraps).
func (r router) index(k core.Key) int {
	if r.per == 0 {
		return route(k, r.n)
	}
	return int(min(uint64(max(k, r.lo)-r.lo)/r.per, uint64(r.n-1)))
}

// segment implements core.Segments: the part owning pos and the end of
// pos's block or stripe. The last block and the last stripe (which also
// owns every key above the domain) have no representable end; KeyMax
// bounds every window.
func (r router) segment(pos core.Key) (int, core.Key) {
	i, end := r.index(pos), core.Key(core.KeyMax)
	if r.per == 0 {
		if last := pos | (1<<routeBlockBits - 1); last != core.KeyMax {
			end = last + 1
		}
	} else if i < r.n-1 {
		end = core.Key(uint64(r.lo) + uint64(i+1)*r.per)
	}
	return i, end
}

// walkable reports whether [lo, hi) spans at most n segments — always
// for stripes; for blocks, windows no wider than one block per part.
// Arithmetic shifts, so negative keys floor to their block like route.
func (r router) walkable(lo, hi core.Key) bool {
	return r.per != 0 || (hi-1)>>routeBlockBits-lo>>routeBlockBits < core.Key(r.n)
}

// routeBlockBits sets the granularity of hash routing: keys are routed
// by their aligned 2^routeBlockBits-key block, not one by one, so
// neighbouring keys share a part and a short ordered window touches a
// few parts in key order instead of all of them. One constant, not a
// knob: 64 keys is the smallest block on the measured plateau — 16- and
// 32-key blocks cost the ordered paths 19 % and 10 %, 64 to 256 read
// the same (DESIGN "Block-hashed routing").
const routeBlockBits = 6

// route is the one spelling of hash routing: the part, of n, that owns
// k's block. The logical shift of the two's-complement bits floors
// negative keys like an arithmetic one: -64..-1 and 0..63 are two
// different blocks.
func route(k core.Key, n int) int {
	return indexOf(mix64(uint64(k)>>routeBlockBits), n)
}

// mix64 is the SplitMix64 finalizer: a full-avalanche bijection that turns
// the dense integer keys of the paper's workloads into uniform hash bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// indexOf maps a 64-bit hash onto [0, n) without modulo bias via the
// fixed-point trick: hi(h * n / 2^64).
func indexOf(h uint64, n int) int {
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}

// Get implements core.Set.
func (p *Partition) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	return p.parts[p.r.index(k)].Get(c, k)
}

// Put implements core.Set.
func (p *Partition) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	return p.parts[p.r.index(k)].Put(c, k, v)
}

// Remove implements core.Set.
func (p *Partition) Remove(c *core.Ctx, k core.Key) bool {
	return p.parts[p.r.index(k)].Remove(c, k)
}

// Len sums the part sizes (like the inner Lens, quiesced-only).
func (p *Partition) Len() int {
	n := 0
	for _, s := range p.parts {
		n += s.Len()
	}
	return n
}

// Parts exposes the partition width (for tests and stats labeling).
func (p *Partition) Parts() int { return len(p.parts) }

// Range implements core.Ranger by visiting parts in index order: key
// order overall for stripes over ordered parts, arbitrary for blocks.
func (p *Partition) Range(f func(k core.Key, v core.Value) bool) {
	rangeParts(p.parts, f)
}

// Scan implements core.Scanner. A window spanning no more segments than
// there are parts — every window on stripes — is walked: its segments
// are visited in ascending order, each through the owning part's own
// linearizable scan clipped to the segment, delivering straight to f.
// A wider block window touches every part anyway and keeps collect-and-
// replay (core.MergeScan): one sub-snapshot per part, replayed segment
// by segment.
//
// Consistency is the same on both paths: every pull is one atomic
// sub-snapshot of one part taken inside the call, the pulled windows are
// disjoint, so no key is visited twice and every reported presence or
// absence was true at some instant inside the call (segment = the pulled
// block or stripe on the walk, part on the merge). The walk may pull one
// part more than once per call — at different instants, for different
// blocks.
func (p *Partition) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	if lo >= hi {
		return true
	}
	if !p.r.walkable(lo, hi) {
		finished, _ := core.MergeScan(c, p.parts, p.r.segment, lo, hi, nil, f)
		return finished
	}
	for pos := lo; pos < hi; {
		i, end := p.r.segment(pos)
		end = min(end, hi)
		if !p.parts[i].(core.Scanner).Scan(c, pos, end, f) {
			return false
		}
		pos = end
	}
	return true
}

// CursorNext implements core.Cursor by draining segments in key order
// from pos (core.StreamDrainNext): each segment is one bounded pull on
// its owner's cursor, delivered straight to f, until the budget fills —
// ⌈max/keys per segment⌉+1 pulls on dense data, not one per part. Empty
// blocks cost a pull each, so after len(parts) pulls with budget still
// unspent (sparse data under a huge hi; never on stripes, where n pulls
// reach any hi) the same page finishes with the lazy k-way merge over
// all parts (core.StreamMergeNext) from the position reached: a page
// never costs more than twice the merge's pulls.
//
// The consistency contract is Scan's. Tokens stay bare key positions —
// no per-part or per-segment state crosses pages.
func (p *Partition) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	next, done, unspent := core.StreamDrainNext(c, p.parts, p.r.segment, pos, hi, max, len(p.parts), f)
	if unspent == 0 {
		return next, done
	}
	next, done, _ = core.StreamMergeNext(c, p.parts, next, hi, unspent, nil, f)
	return next, done
}

// ReclaimAll implements core.Reclaimer by delegation to every part.
func (p *Partition) ReclaimAll() { reclaimParts(p.parts) }

// reclaimParts recycles what each part can (core.Reclaimer); parts that
// cannot pool fall to the GC.
func reclaimParts(parts []core.Set) {
	for _, s := range parts {
		if r, ok := s.(core.Reclaimer); ok {
			r.ReclaimAll()
		}
	}
}
