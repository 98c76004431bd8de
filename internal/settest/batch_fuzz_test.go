// Fuzz target for the batched-operation contract, run as a CI smoke
// alongside the spec-grammar and cursor-token fuzzers: against a
// quiescent structure, a batch must be indistinguishable from the same
// point ops looped in index order — for every batch shape the fuzzer
// can invent (duplicate keys, absent keys, empty batches, odd lengths),
// on bespoke single-traversal paths and grouped composite paths alike.
package settest

import (
	"testing"

	"csds/internal/core"

	// The skip-list specs below resolve through the registry.
	_ "csds/internal/skiplist"
)

// fuzzBatchSpecs covers one bespoke leaf per strategy plus the grouped
// composites whose partition arithmetic the fuzzer stresses hardest.
var fuzzBatchSpecs = []string{
	"list/lazy",                   // guard-bracket traversal with resume
	"list/harris",                 // lock-free reads resumed, sorted writes
	"skiplist/herlihy",            // interleaved descents, hinted writes
	"sharded(4,list/lazy)",        // shard grouping + flat-combining wiring
	"sharded(4,skiplist/herlihy)", // one routed PartBatcher call
	"striped(4,skiplist/herlihy)", // the same call under range routing
	"elastic(4,skiplist/herlihy)", // the same call under resize gates
	"readcache(64,list/lazy)",     // probe pass + miss sub-batch
}

// decodeBatches turns fuzz bytes into a batch program: each batch is a
// kind byte, a length byte (0..16 — empties included), then that many
// key bytes over a 32-key domain (small enough that duplicates and
// present/absent flips are the common case, not the corner). The keys
// are spaced 32 apart, two to a 64-key routing block, so a sharded
// batch spans several shards instead of the one block 0..31 would fill.
type fuzzBatch struct {
	kind byte // 0 put, 1 remove, 2 get
	keys []core.Key
}

func decodeBatches(data []byte) []fuzzBatch {
	var prog []fuzzBatch
	for i := 0; i+1 < len(data) && len(prog) < 64; {
		kind := data[i] % 3
		n := int(data[i+1] % 17)
		i += 2
		keys := make([]core.Key, 0, n)
		for j := 0; j < n && i < len(data); j++ {
			keys = append(keys, core.Key(data[i]%32)*32)
			i++
		}
		prog = append(prog, fuzzBatch{kind: kind, keys: keys})
	}
	return prog
}

func FuzzBatchShapes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 5, 5, 9, 1, 2, 5, 9, 2, 3, 5, 6, 7})
	f.Add([]byte{0, 16, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{2, 0, 1, 0, 0, 4, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeBatches(data)
		for _, spec := range fuzzBatchSpecs {
			factory, err := core.NewFactory(spec)
			if err != nil {
				t.Fatalf("resolving %s: %v", spec, err)
			}
			s, ok := factory(core.Options{ExpectedSize: 64}).(interface {
				core.Set
				core.Batcher
			})
			if !ok {
				t.Fatalf("%s does not implement core.Batcher", spec)
			}
			c := core.NewCtx(0)
			// The model applies each element as a looped point op in index
			// order; a quiescent batch must be indistinguishable from it.
			model := map[core.Key]core.Value{}
			for bi, b := range prog {
				switch b.kind {
				case 0: // put
					pairs := make([]core.KV, len(b.keys))
					want := make([]bool, len(b.keys))
					for i, k := range b.keys {
						pairs[i] = core.KV{K: k, V: core.Value(bi*100 + i)}
						if _, in := model[k]; !in {
							model[k] = pairs[i].V
							want[i] = true
						}
					}
					next := 0
					s.MultiPut(c, pairs, func(i int, inserted bool) {
						if i != next {
							t.Fatalf("%s batch %d: MultiPut delivered index %d, want %d", spec, bi, i, next)
						}
						next++
						if inserted != want[i] {
							t.Fatalf("%s batch %d: MultiPut index %d (key %d) = %v, looped model says %v", spec, bi, i, pairs[i].K, inserted, want[i])
						}
					})
					if next != len(pairs) {
						t.Fatalf("%s batch %d: MultiPut delivered %d of %d results", spec, bi, next, len(pairs))
					}
				case 1: // remove
					want := make([]bool, len(b.keys))
					for i, k := range b.keys {
						if _, in := model[k]; in {
							delete(model, k)
							want[i] = true
						}
					}
					next := 0
					s.MultiRemove(c, b.keys, func(i int, removed bool) {
						if i != next {
							t.Fatalf("%s batch %d: MultiRemove delivered index %d, want %d", spec, bi, i, next)
						}
						next++
						if removed != want[i] {
							t.Fatalf("%s batch %d: MultiRemove index %d (key %d) = %v, looped model says %v", spec, bi, i, b.keys[i], removed, want[i])
						}
					})
					if next != len(b.keys) {
						t.Fatalf("%s batch %d: MultiRemove delivered %d of %d results", spec, bi, next, len(b.keys))
					}
				default: // get
					next := 0
					s.MultiGet(c, b.keys, func(i int, v core.Value, ok bool) {
						if i != next {
							t.Fatalf("%s batch %d: MultiGet delivered index %d, want %d", spec, bi, i, next)
						}
						next++
						wv, want := model[b.keys[i]]
						if ok != want || (ok && v != wv) {
							t.Fatalf("%s batch %d: MultiGet index %d (key %d) = (%d, %v), looped model says (%d, %v)", spec, bi, i, b.keys[i], v, ok, wv, want)
						}
					})
					if next != len(b.keys) {
						t.Fatalf("%s batch %d: MultiGet delivered %d of %d results", spec, bi, next, len(b.keys))
					}
				}
			}
			if s.Len() != len(model) {
				t.Fatalf("%s: final Len = %d, looped model has %d", spec, s.Len(), len(model))
			}
			for k, v := range model {
				if gv, ok := s.Get(c, k); !ok || gv != v {
					t.Fatalf("%s: final Get(%d) = (%d, %v), want (%d, true)", spec, k, gv, ok, v)
				}
			}
		}
	})
}
