package combinator

import "csds/internal/core"

// Striped range-partitions the key space over n inner instances: stripe i
// owns an equal contiguous slice of the partition domain, in order. Like
// Sharded, each operation touches exactly one stripe and inherits its
// linearization point from the inner operation; unlike Sharded the
// partition preserves key order, which keeps spatial locality (adjacent
// keys share a stripe) and leaves the door open to ordered iteration and
// range operations over stripes in sequence.
//
// The partition domain matters: the paper's workloads draw dense keys
// from [1, KeySpace], so dividing the whole int64 line would funnel
// every real key into one stripe. The domain is therefore
// [0, Options.KeySpan) when that hint is set (the harness fills it from
// the workload's key space), else [0, 2*ExpectedSize) (the paper's
// KeySpace convention), and keys outside it clamp to the first/last
// stripe (still a total, order-preserving map over all of int64).
// Without either hint the domain falls back to the full signed range.
//
// The name follows lock striping: where a striped lock array partitions a
// lock's protection domain, this partitions the structure itself.
type Striped struct {
	stripes []core.Set
	lo      core.Key
	per     uint64 // domain width per stripe
}

// NewStriped builds an n-way range-partitioned composite over inner
// instances. Size hints in o describe the composite and set the
// partition domain; under the paper's workloads each stripe then
// receives about an n-th of the keys. A width wider than the domain
// itself would leave trailing stripes permanently unreachable (with
// span < n each of the span keys maps to its own stripe and the rest
// never route), so the effective width is clamped to the span;
// Stripes reports the clamped width.
func NewStriped(n int, inner func(core.Options) core.Set, o core.Options) *Striped {
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
	so := splitOptions(o, n)
	stripes := make([]core.Set, n)
	for i := range stripes {
		stripes[i] = inner(so)
	}
	return &Striped{stripes: stripes, lo: lo, per: per}
}

// stripeIndex maps a key to its stripe: a clamped linear map from the
// partition domain onto stripe indices, monotone over the whole signed
// key range.
func (s *Striped) stripeIndex(k core.Key) int {
	if k < s.lo {
		return 0
	}
	idx := int((uint64(k) - uint64(s.lo)) / s.per)
	if idx >= len(s.stripes) {
		idx = len(s.stripes) - 1
	}
	return idx
}

// stripe routes a key to its instance.
func (s *Striped) stripe(k core.Key) core.Set {
	return s.stripes[s.stripeIndex(k)]
}

// Get implements core.Set.
func (s *Striped) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	return s.stripe(k).Get(c, k)
}

// Put implements core.Set.
func (s *Striped) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	return s.stripe(k).Put(c, k, v)
}

// Remove implements core.Set.
func (s *Striped) Remove(c *core.Ctx, k core.Key) bool {
	return s.stripe(k).Remove(c, k)
}

// Len sums the stripe sizes (quiesced-only, like the inner Lens).
func (s *Striped) Len() int {
	n := 0
	for _, st := range s.stripes {
		n += st.Len()
	}
	return n
}

// Stripes exposes the effective partition width (the requested width,
// clamped to the partition domain's span).
func (s *Striped) Stripes() int { return len(s.stripes) }

// Range implements core.Ranger by visiting stripes in partition order, so
// when the inner structures are ordered the whole iteration is in
// ascending key order.
func (s *Striped) Range(f func(k core.Key, v core.Value) bool) {
	rangeParts(s.stripes, f)
}

// Scan implements core.Scanner — the payoff of the order-preserving
// partition: only the stripes whose key slice intersects [lo, hi) are
// visited, in partition order, each through its own linearizable scan.
// The monotone routing makes the concatenation ascending whenever the
// inner structures are ordered, no merge needed; each stripe is one
// atomic sub-snapshot, so every reported state is true at some instant
// inside the call (segment = stripe). Early stop propagates across
// stripe boundaries.
func (s *Striped) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	if lo >= hi {
		return true
	}
	for i, last := s.stripeIndex(lo), s.stripeIndex(hi-1); i <= last; i++ {
		if !s.stripes[i].(core.Scanner).Scan(c, lo, hi, f) {
			return false
		}
	}
	return true
}

// stripeAt is the partition StreamDrainNext walks: the stripe owning
// pos and the end of its key slice. The last stripe owns everything
// above the domain as well (keys outside it clamp to the edge stripes).
func (s *Striped) stripeAt(pos core.Key) (core.Cursor, core.Key) {
	i := s.stripeIndex(pos)
	end := core.Key(core.KeyMax)
	if i < len(s.stripes)-1 {
		end = core.Key(uint64(s.lo) + uint64(i+1)*s.per)
	}
	return s.stripes[i].(core.Cursor), end
}

// CursorNext implements core.Cursor by cross-stripe streaming drain
// (core.StreamDrainNext) — the order-preserving payoff again: the token
// position routes straight to its stripe, stripes before it are never
// touched, and the page pulls stripes in partition order through
// bounded streams until the budget fills. Each pull is one atomic
// sub-snapshot of its stripe, the concatenation is ascending because
// the routing is monotone, and no merge or overshoot is needed.
func (s *Striped) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	next, done, _ := core.StreamDrainNext(c, s.stripeAt, pos, hi, max, len(s.stripes), f)
	return next, done
}
