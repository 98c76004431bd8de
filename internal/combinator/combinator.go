// Package combinator implements composable structure combinators: wrappers
// that build a higher-throughput linearizable core.Set out of instances of
// any registered algorithm. The paper (conf_spaa_DavidG16) evaluates its
// structures one instance at a time; these combinators are the horizontal
// step — hash sharding, key-space striping, and bounded read-through
// caching — and they keep the paper's fine-grained metrics flowing: every
// inner operation runs under the caller's *core.Ctx, so lock-wait times
// and restart counts from all shards aggregate into the same per-thread
// stats slots the harness already reads.
//
// The wrappers register themselves with the core combinator registry
// under the names "sharded", "striped", "readcache" and "elastic", so
// composite specifications like
//
//	sharded(16,list/lazy)
//	striped(8,skiplist/herlihy)
//	readcache(1024,bst/tk)
//	readcache(512,sharded(4,hashtable/lazy))
//	elastic(4,list/lazy)
//
// resolve through core.Build / core.NewFactory. The elastic composite
// additionally implements core.Resizable: its width can be grown or
// shrunk online (see Elastic).
package combinator

import (
	"fmt"
	"math/bits"

	"csds/internal/core"
)

// maxPartitions bounds shard/stripe counts accepted through the spec
// grammar: a width beyond 2^16 is a typo (it exceeds any plausible core
// count by three orders of magnitude), and catching it at resolution time
// beats allocating 2^16+ inner instances.
const maxPartitions = 1 << 16

// validateWidth builds the spec-time check for partition-width arguments.
func validateWidth(comb string) func(int) error {
	return func(arg int) error {
		if arg > maxPartitions {
			return fmt.Errorf("%s: width %d exceeds %d inner instances — likely a typo (each shard is a whole structure instance)", comb, arg, maxPartitions)
		}
		return nil
	}
}

func init() {
	core.RegisterCombinator(core.Combinator{
		Name: "sharded",
		New: func(arg int, inner func(core.Options) core.Set, o core.Options) core.Set {
			return NewSharded(arg, inner, o)
		},
		ArgDesc:  "shards",
		Desc:     "hash-partitions keys, by aligned 64-key block, over N independent inner instances",
		Validate: validateWidth("sharded"),
	})
	core.RegisterCombinator(core.Combinator{
		Name: "striped",
		New: func(arg int, inner func(core.Options) core.Set, o core.Options) core.Set {
			return NewStriped(arg, inner, o)
		},
		ArgDesc:  "stripes",
		Desc:     "range-partitions the key span (Options.KeySpan when set, else 0..2*ExpectedSize) over N inner instances, in order",
		Validate: validateWidth("striped"),
	})
	core.RegisterCombinator(core.Combinator{
		Name: "readcache",
		New: func(arg int, inner func(core.Options) core.Set, o core.Options) core.Set {
			return NewReadCacheOpts(arg, inner(o), o)
		},
		ArgDesc: "capacity",
		Desc:    "bounded read-through cache (TTL expiry + admission via Options) with invalidate-on-update over one inner instance",
		// No Validate hook: the grammar already confines arg to
		// [1, 1<<24], which is exactly the slot-table bound
		// (maxSpecCapacity), so every capacity that parses is legal and
		// NewReadCache's clamps are unreachable through core.Build. Only
		// the direct constructor can be handed out-of-range capacities;
		// its doc comment spells out the clamping.
	})
	core.RegisterCombinator(core.Combinator{
		Name: "elastic",
		New: func(arg int, inner func(core.Options) core.Set, o core.Options) core.Set {
			e, err := NewElastic(arg, inner, o)
			if err != nil {
				// Unreachable through the registries: every algorithm and
				// combinator in this module implements core.Ranger,
				// core.Scanner and core.Cursor.
				panic(fmt.Sprintf("combinator: %v", err))
			}
			return e
		},
		ArgDesc:  "initial shards",
		Desc:     "hash partition resizable online via core.Resizable (epoch-swapped COW shard map)",
		Validate: validateWidth("elastic"),
	})
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

// routeBlockBits sets the granularity of hash routing: keys are routed
// by their aligned 2^routeBlockBits-key block, not one by one, so
// neighbouring keys share a part and a short ordered window touches a
// few parts in key order instead of all of them. One constant, not a
// knob: 64 keys is the smallest block on the measured plateau — 16- and
// 32-key blocks cost the ordered paths 19 % and 10 %, 64 to 256 read
// the same (DESIGN "Block-hashed routing").
const routeBlockBits = 6

// route is the one spelling of hash routing: the part, of n, that owns
// k's block. Every hash-partitioned path — point ops, batch groupers,
// migration, the ordered walks — goes through it, so no two of them can
// disagree about who owns a key. The logical shift of the two's-
// complement bits floors negative keys like an arithmetic one: -64..-1
// and 0..63 are two different blocks.
func route(k core.Key, n int) int {
	return indexOf(mix64(uint64(k)>>routeBlockBits), n)
}

// splitOptions derives the per-instance options for an n-way partition:
// the size hints describe the whole composite, so each part expects an
// n-th (rounded up) of the elements and buckets. The key-domain hint is
// NOT divided — partitions subdivide elements, never the key space — and
// the 2*ExpectedSize convention is materialized into KeySpan first, so a
// nested range partition (striped under sharded) still sees the whole
// domain rather than deriving a 1/n-scale one from the divided size.
func splitOptions(o core.Options, n int) core.Options {
	if o.KeySpan == 0 && o.ExpectedSize > 0 {
		o.KeySpan = core.Key(2 * o.ExpectedSize)
	}
	if n > 1 {
		if o.ExpectedSize > 0 {
			o.ExpectedSize = (o.ExpectedSize + n - 1) / n
		}
		if o.Buckets > 0 {
			o.Buckets = (o.Buckets + n - 1) / n
		}
	}
	return o
}

// rangeParts implements core.Ranger over an ordered sequence of parts,
// threading f's early-stop signal across part boundaries. Every part must
// implement core.Ranger; the wrappers panic here when handed an inner
// structure that does not (every algorithm in this module does).
func rangeParts(parts []core.Set, f func(k core.Key, v core.Value) bool) {
	done := false
	for _, p := range parts {
		if done {
			return
		}
		p.(core.Ranger).Range(func(k core.Key, v core.Value) bool {
			if !f(k, v) {
				done = true
			}
			return !done
		})
	}
}

// clampParts normalizes a shard/stripe count to at least 1.
func clampParts(n int) int {
	if n < 1 {
		return 1
	}
	return n
}
