// The poisoning battery: the memory-reclamation overhaul's conformance
// suite. With an EBR domain attached, every remove retires its node
// through a reclaim callback that poisons the mapping (core.PoisonKey /
// core.PoisonValue) and recycles the node into a package pool — so a
// structure that lets a traversal reach a node past its grace period no
// longer fails silently: the reader observes an impossible mapping and
// the battery reports it (and under -race, the reclaim's poisoning
// stores race the late reader's loads, which the race detector flags
// even when the values happen to look plausible).
//
// The checks are value-shaped: every Put writes Value(k) for key k, so
// any Get or scan that returns ok must return exactly Value(k) — a
// poisoned value, a recycled node's new mapping, or a stale snapshot all
// break that equation. The battery sizes itself through scale(), parks
// with Gosched on a cadence, and bounds every loop, so it is safe on a
// single-CPU host.
package settest

import (
	"runtime"
	"sync"
	"testing"

	"csds/internal/core"
	"csds/internal/ebr"
	"csds/internal/xrand"
)

// poisonSpan is the key range of the battery: small, so removes
// constantly recycle nodes that concurrent readers are traversing.
const poisonSpan = 96

// RunPoison executes the poisoning battery against the factory: churn
// workers retire and recycle nodes while reader workers assert that no
// traversal ever observes a poisoned or recycled mapping, and the final
// quiesced drain must reclaim every retired node. A core.Resizable set
// runs the battery again in an "UnderResize" subtest, resized the whole
// time — every published resize eagerly retires a whole superseded shard
// map, so that leg proves teardown reclamation (ReclaimAll sweeps) never
// recycles a node out from under a straggling reader. A set that
// speculates runs the battery again in an "Elided" subtest.
func RunPoison(t *testing.T, f Factory) {
	t.Helper()
	runPoison(t, f, direct)
	if resizes(f) {
		t.Run("UnderResize", func(t *testing.T) { runPoison(t, f, underResize) })
	}
	if ef := elided(f); ef != nil {
		t.Run("Elided", func(t *testing.T) { runPoison(t, ef, direct) })
	}
}

func runPoison(t *testing.T, f Factory, drive driver) {
	dom := ebr.NewDomain()
	s := f(core.Options{Domain: dom, ExpectedSize: poisonSpan})
	drive(t, s, dom, func() { poison(t, s, dom) })

	// Quiesced drain: all records unregistered; every advance now
	// succeeds, aging all orphaned limbo out of its grace period. Real
	// reclamation means nothing may stay stranded.
	dom.Advance()
	dom.Advance()
	dom.Advance()
	retired, reclaimed := dom.Stats()
	if reclaimed > retired {
		t.Fatalf("EBR reclaimed %d > retired %d", reclaimed, retired)
	}
	if reclaimed != retired {
		t.Errorf("quiesced drain left %d of %d retired nodes unreclaimed", retired-reclaimed, retired)
	}
}

// retireSpan is RunRetire's key range: wide enough that a composite
// routes keys to every inner instance (sharded hashes 64-key blocks).
const retireSpan = 1024

// RunRetire checks the two EBR properties the poison battery cannot see.
// First, the caller's epoch record reaches the whole set, and for a
// composite every inner instance: each remove of a present key retires at
// least one node through it. Poison passes vacuously on a set that
// retires nothing.
// Second, the set's brackets nest inside a caller's: while the caller
// holds an outer bracket, nothing retired inside it is reclaimed, however
// often the epoch is pushed. Once the bracket closes, a quiesced drain
// reclaims every retired node.
func RunRetire(t *testing.T, f Factory) {
	t.Helper()
	dom := ebr.NewDomain()
	s := f(core.Options{Domain: dom, ExpectedSize: retireSpan})
	c := core.NewCtx(0)
	c.Epoch = dom.Register()
	for k := core.Key(0); k < retireSpan; k++ {
		s.Put(c, k, core.Value(k))
	}
	// Age out whatever the fill retired: every reclaim from here on
	// belongs to the removes.
	push := func() {
		dom.Advance()
		dom.Advance()
		dom.Advance()
		c.Epoch.Collect()
	}
	push()
	retired0, reclaimed0 := dom.Stats()

	c.EpochEnter()
	for k := core.Key(0); k < retireSpan; k++ {
		if !s.Remove(c, k) {
			t.Fatalf("Remove(%d) of a present key reported absent", k)
		}
	}
	push()
	retired, reclaimed := dom.Stats()
	c.EpochExit()
	if reclaimed != reclaimed0 {
		t.Fatalf("%d nodes reclaimed while the caller's outer bracket was open: the structure's Exit ended the caller's grace period", reclaimed-reclaimed0)
	}
	if retired-retired0 < retireSpan {
		t.Fatalf("%d removes retired only %d nodes: the caller's epoch record does not reach the whole set", retireSpan, retired-retired0)
	}

	c.Epoch.Unregister()
	push()
	retired, reclaimed = dom.Stats()
	if reclaimed != retired {
		t.Errorf("quiesced drain left %d of %d retired nodes unreclaimed", retired-reclaimed, retired)
	}
}

// poison runs the churners and readers to completion.
func poison(t *testing.T, s core.Set, dom *ebr.Domain) {
	scanner, _ := s.(core.Scanner)
	cursor, _ := s.(core.Cursor)
	iters := scale(4000)
	var wg sync.WaitGroup

	// Churners: small key range, update-heavy — nodes retire, age through
	// their grace period, and recycle while the readers below traverse.
	// Each op sits inside the churner's own epoch bracket, the shape of a
	// caller that batches several ops under one bracket: the structures'
	// brackets nest inside it, and what they retire there must still age
	// out and drain.
	const churners, readers = 2, 2
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			c.Epoch = dom.Register()
			defer c.Epoch.Unregister()
			rng := xrand.New(uint64(w)*0x9e3779b97f4a7c15 + 1)
			for i := 0; i < iters; i++ {
				k := core.Key(rng.Int63n(poisonSpan))
				c.EpochEnter()
				if rng.Uint64n(2) == 0 {
					s.Put(c, k, core.Value(k))
				} else {
					s.Remove(c, k)
				}
				c.EpochExit()
				if i&63 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}

	// Readers: every observation must be the one mapping a live key can
	// have. The structures open their own epoch brackets — that discipline
	// is precisely what this battery verifies.
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(churners + w)
			c.Epoch = dom.Register()
			defer c.Epoch.Unregister()
			rng := xrand.New(uint64(w)*0x51af3c1d + 7)
			check := func(where string, k core.Key, v core.Value) bool {
				if k == core.PoisonKey || v == core.PoisonValue {
					t.Errorf("%s observed a poisoned node: key %d value %d", where, k, v)
					return false
				}
				if v != core.Value(k) {
					t.Errorf("%s observed impossible mapping %d -> %d (want %d): recycled or stale node", where, k, v, core.Value(k))
					return false
				}
				return true
			}
			for i := 0; i < iters; i++ {
				k := core.Key(rng.Int63n(poisonSpan))
				switch {
				case scanner != nil && i%16 == 5:
					scanner.Scan(c, 0, poisonSpan, func(k core.Key, v core.Value) bool {
						return check("Scan", k, v)
					})
				case cursor != nil && i%16 == 11:
					pos := core.Key(0)
					for done := false; !done; {
						pos, done = cursor.CursorNext(c, pos, poisonSpan, 8, func(k core.Key, v core.Value) bool {
							return check("CursorNext", k, v)
						})
					}
				default:
					if v, ok := s.Get(c, k); ok {
						check("Get", k, v)
					}
				}
				if i&63 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}

	wg.Wait()
}
