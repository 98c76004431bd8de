// Batched-operation (core.Batcher) conformance battery. The contract
// under test:
//
//   - the callback fires exactly once per batch index, in caller
//     (ascending index) order, for every index including duplicates and
//     absent keys — a zero-length batch is a no-op;
//   - per-batch linearizability: each element takes effect at some
//     instant inside the Multi* call, with duplicate keys resolving as
//     if executed in ascending index order — so against a quiescent
//     structure a batch is indistinguishable from the same ops looped;
//   - the set-theoretic concurrent algebra (successful inserts minus
//     removes per key equals final presence) holds when every update
//     travels through batches, including while an elastic composite is
//     resized underneath (the BatchSharedUnderResize and
//     BatchAnchorsUnderResize legs of core.Resizable sets).
package settest

import (
	"sync"
	"testing"
	"time"

	"csds/internal/core"
	"csds/internal/xrand"
)

// RunBatcher executes the batched-operation battery against the factory.
// The built set must implement core.Batcher.
func RunBatcher(t *testing.T, f Factory) {
	t.Helper()
	t.Run("SequentialBatchModel", func(t *testing.T) { testSequentialBatchModel(t, f) })
	t.Run("CallerOrderDelivery", func(t *testing.T) { testCallerOrderDelivery(t, f) })
	runLegs(t, f, []leg{
		{"ConcurrentBatchShared", "BatchSharedUnderResize", core.Options{ExpectedSize: 64}, runConcurrentBatchShared},
		{"BatchAnchorsDuringChurn", "BatchAnchorsUnderResize", core.Options{ExpectedSize: 128}, runBatchAnchorsDuringChurn},
	})
}

// batchSet is the composite the batch bodies operate on.
type batchSet interface {
	core.Set
	core.Batcher
}

func mustBatcher(t *testing.T, s core.Set) batchSet {
	t.Helper()
	b, ok := s.(batchSet)
	if !ok {
		t.Fatalf("settest: factory built %T, which is not core.Batcher", s)
	}
	return b
}

// testSequentialBatchModel drives random batch shapes — duplicate keys,
// absent keys, empty batches, lengths from 0 to well past typical page
// sizes — against a model map that applies elements in index order, and
// checks every per-index result and the final structure state.
func testSequentialBatchModel(t *testing.T, f Factory) {
	s := mustBatcher(t, f(core.Options{ExpectedSize: 128}))
	c := ctx()
	rng := xrand.New(20250807)
	model := map[core.Key]core.Value{}
	rounds := scale(400)
	for r := 0; r < rounds; r++ {
		n := int(rng.Uint64n(33)) // 0..32: empty batches included
		if rng.Bool(0.1) {
			n = int(rng.Uint64n(200)) // occasional large batch
		}
		// A small key domain forces duplicates within a batch and a mix
		// of present and absent keys.
		keys := make([]core.Key, n)
		for i := range keys {
			keys[i] = core.Key(rng.Int63n(48))
		}
		switch rng.Uint64n(3) {
		case 0: // MultiPut
			pairs := make([]core.KV, n)
			want := make([]bool, n)
			for i, k := range keys {
				pairs[i] = core.KV{K: k, V: core.Value(r*1000 + i)}
				if _, in := model[k]; !in {
					model[k] = pairs[i].V
					want[i] = true
				}
			}
			seen := make([]bool, n)
			last := -1
			s.MultiPut(c, pairs, func(i int, inserted bool) {
				if i <= last {
					t.Fatalf("round %d: MultiPut delivered index %d after %d", r, i, last)
				}
				last = i
				seen[i] = true
				if inserted != want[i] {
					t.Fatalf("round %d: MultiPut index %d (key %d) = %v, want %v", r, i, pairs[i].K, inserted, want[i])
				}
			})
			for i, ok := range seen {
				if !ok {
					t.Fatalf("round %d: MultiPut never delivered index %d", r, i)
				}
			}
		case 1: // MultiRemove
			want := make([]bool, n)
			for i, k := range keys {
				if _, in := model[k]; in {
					delete(model, k)
					want[i] = true
				}
			}
			seen := make([]bool, n)
			last := -1
			s.MultiRemove(c, keys, func(i int, removed bool) {
				if i <= last {
					t.Fatalf("round %d: MultiRemove delivered index %d after %d", r, i, last)
				}
				last = i
				seen[i] = true
				if removed != want[i] {
					t.Fatalf("round %d: MultiRemove index %d (key %d) = %v, want %v", r, i, keys[i], removed, want[i])
				}
			})
			for i, ok := range seen {
				if !ok {
					t.Fatalf("round %d: MultiRemove never delivered index %d", r, i)
				}
			}
		default: // MultiGet
			seen := make([]bool, n)
			last := -1
			s.MultiGet(c, keys, func(i int, v core.Value, ok bool) {
				if i <= last {
					t.Fatalf("round %d: MultiGet delivered index %d after %d", r, i, last)
				}
				last = i
				seen[i] = true
				wv, want := model[keys[i]]
				if ok != want || (ok && v != wv) {
					t.Fatalf("round %d: MultiGet index %d (key %d) = (%d, %v), want (%d, %v)", r, i, keys[i], v, ok, wv, want)
				}
			})
			for i, ok := range seen {
				if !ok {
					t.Fatalf("round %d: MultiGet never delivered index %d", r, i)
				}
			}
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("final Len = %d, model %d", s.Len(), len(model))
	}
	for k, v := range model {
		if gv, ok := s.Get(c, k); !ok || gv != v {
			t.Fatalf("final Get(%d) = (%d, %v), want (%d, true)", k, gv, ok, v)
		}
	}
}

// testCallerOrderDelivery pins the directed corners of the delivery
// contract: duplicates resolve in index order, empty batches are no-ops,
// and a batch mixing present, absent and repeated keys reports each
// index's own outcome.
func testCallerOrderDelivery(t *testing.T, f Factory) {
	s := mustBatcher(t, f(core.Options{}))
	c := ctx()
	// Empty batches: the callback must never fire.
	s.MultiGet(c, nil, func(int, core.Value, bool) { t.Fatal("MultiGet on empty batch fired") })
	s.MultiPut(c, nil, func(int, bool) { t.Fatal("MultiPut on empty batch fired") })
	s.MultiRemove(c, nil, func(int, bool) { t.Fatal("MultiRemove on empty batch fired") })

	// Duplicate keys in one MultiPut: only the first index of each key
	// inserts (index order), later duplicates see it present.
	pairs := []core.KV{{K: 7, V: 70}, {K: 3, V: 30}, {K: 7, V: 71}, {K: 3, V: 31}, {K: 9, V: 90}}
	var got []bool
	s.MultiPut(c, pairs, func(i int, inserted bool) {
		if i != len(got) {
			t.Fatalf("MultiPut delivered index %d, want %d", i, len(got))
		}
		got = append(got, inserted)
	})
	want := []bool{true, true, false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MultiPut dup results = %v, want %v", got, want)
		}
	}
	// The first duplicate's value won.
	if v, ok := s.Get(c, 7); !ok || v != 70 {
		t.Fatalf("Get(7) = (%d, %v), want (70, true)", v, ok)
	}

	// Duplicate keys in one MultiRemove: only the first occurrence
	// removes.
	var rem []bool
	s.MultiRemove(c, []core.Key{3, 3, 5, 9, 9}, func(i int, removed bool) {
		if i != len(rem) {
			t.Fatalf("MultiRemove delivered index %d, want %d", i, len(rem))
		}
		rem = append(rem, removed)
	})
	wantRem := []bool{true, false, false, true, false}
	for i := range wantRem {
		if rem[i] != wantRem[i] {
			t.Fatalf("MultiRemove dup results = %v, want %v", rem, wantRem)
		}
	}

	// MultiGet mixing hits, misses and duplicates. Like the point Get,
	// the value is meaningful only when ok is true.
	type res struct {
		v  core.Value
		ok bool
	}
	var reads []res
	s.MultiGet(c, []core.Key{7, 3, 7, 100}, func(i int, v core.Value, ok bool) {
		if i != len(reads) {
			t.Fatalf("MultiGet delivered index %d, want %d", i, len(reads))
		}
		reads = append(reads, res{v, ok})
	})
	wantReads := []res{{70, true}, {0, false}, {70, true}, {0, false}}
	for i := range wantReads {
		if reads[i].ok != wantReads[i].ok || (reads[i].ok && reads[i].v != wantReads[i].v) {
			t.Fatalf("MultiGet results = %v, want %v", reads, wantReads)
		}
	}
}

// runConcurrentBatchShared hammers a small shared key space with every
// update traveling through batches, and checks the same per-key
// insert/remove algebra as the point-op battery: each successful batched
// Put is an absent→present transition, each successful batched Remove a
// present→absent transition, so the counts balance for any per-batch
// linearizable implementation regardless of interleaving. Budgets are
// op-scaled (scale), never wall-clock.
func runConcurrentBatchShared(t *testing.T, set core.Set) {
	s := mustBatcher(t, set)
	const workers = 6
	batches := scale(600)
	const keySpace = 32
	const maxBatch = 12
	type tally struct{ ins, rem int64 }
	tallies := make([][keySpace]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w)*6151 + 29)
			keys := make([]core.Key, 0, maxBatch)
			pairs := make([]core.KV, 0, maxBatch)
			for i := 0; i < batches; i++ {
				n := 1 + int(rng.Uint64n(maxBatch))
				if rng.Bool(0.5) {
					pairs = pairs[:0]
					for j := 0; j < n; j++ {
						k := core.Key(rng.Int63n(keySpace))
						pairs = append(pairs, core.KV{K: k, V: k})
					}
					s.MultiPut(c, pairs, func(j int, inserted bool) {
						if inserted {
							tallies[w][pairs[j].K].ins++
						}
					})
				} else {
					keys = keys[:0]
					for j := 0; j < n; j++ {
						keys = append(keys, core.Key(rng.Int63n(keySpace)))
					}
					s.MultiRemove(c, keys, func(j int, removed bool) {
						if removed {
							tallies[w][keys[j]].rem++
						}
					})
				}
			}
		}(w)
	}
	wg.Wait()
	c := ctx()
	total := 0
	for k := 0; k < keySpace; k++ {
		var ins, rem int64
		for w := 0; w < workers; w++ {
			ins += tallies[w][k].ins
			rem += tallies[w][k].rem
		}
		_, present := s.Get(c, core.Key(k))
		delta := ins - rem
		if delta != 0 && delta != 1 {
			t.Fatalf("key %d: successful batched inserts - removes = %d (per-batch linearizability violated)", k, delta)
		}
		if (delta == 1) != present {
			t.Fatalf("key %d: delta %d but present=%v", k, delta, present)
		}
		if present {
			total++
		}
	}
	if got := s.Len(); got != total {
		t.Fatalf("Len = %d, but %d keys present", got, total)
	}
}

// runBatchAnchorsDuringChurn checks that batched readers always see an
// anchor key that is never removed, while batched churn happens around
// it — the per-batch linearization anchor: every MultiGet element must
// observe some state within its call, and the anchor is present in all
// of them. The updaters stop at an iteration or a wall budget, whichever
// ends first (see wallBudget).
func runBatchAnchorsDuringChurn(t *testing.T, set core.Set) {
	s := mustBatcher(t, set)
	c0 := ctx()
	const anchor = core.Key(500)
	if !s.Put(c0, anchor, 12345) {
		t.Fatal("anchor insert failed")
	}
	stop := make(chan struct{})
	var readers, updaters sync.WaitGroup
	var mu sync.Mutex
	bad := 0
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			c := core.NewCtx(100 + r)
			rng := xrand.New(uint64(r) + 777)
			keys := make([]core.Key, 0, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The anchor rides inside a batch of churned keys, at a
				// random position.
				keys = keys[:0]
				pos := int(rng.Uint64n(8))
				for j := 0; j < 8; j++ {
					if j == pos {
						keys = append(keys, anchor)
					} else {
						keys = append(keys, core.Key(400+rng.Int63n(200)))
					}
				}
				s.MultiGet(c, keys, func(i int, v core.Value, ok bool) {
					if keys[i] == anchor && (!ok || v != 12345) {
						mu.Lock()
						bad++
						mu.Unlock()
					}
				})
			}
		}(r)
	}
	for w := 0; w < 4; w++ {
		updaters.Add(1)
		go func(w int) {
			defer updaters.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w) + 654)
			keys := make([]core.Key, 0, 8)
			pairs := make([]core.KV, 0, 8)
			deadline := time.Now().Add(wallBudget)
			for i := 0; i < scale(800); i++ {
				if time.Now().After(deadline) {
					break
				}
				// Churn keys around (but never equal to) the anchor, in
				// batches.
				if rng.Bool(0.5) {
					pairs = pairs[:0]
					for j := 0; j < 8; j++ {
						k := core.Key(400 + rng.Int63n(200))
						if k == anchor {
							k++
						}
						pairs = append(pairs, core.KV{K: k, V: k})
					}
					s.MultiPut(c, pairs, func(int, bool) {})
				} else {
					keys = keys[:0]
					for j := 0; j < 8; j++ {
						k := core.Key(400 + rng.Int63n(200))
						if k == anchor {
							k++
						}
						keys = append(keys, k)
					}
					s.MultiRemove(c, keys, func(int, bool) {})
				}
			}
		}(w)
	}
	updaters.Wait()
	close(stop)
	readers.Wait()
	if bad != 0 {
		t.Fatalf("a batched reader lost sight of the anchor key %d time(s) during unrelated churn", bad)
	}
	if v, ok := s.Get(c0, anchor); !ok || v != 12345 {
		t.Fatal("anchor missing after batched churn")
	}
}
