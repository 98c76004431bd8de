//go:build !race

// Not under -race: there sync.Pool drops a quarter of its Puts by design,
// so a pooled path cannot show its steady state.

package combinator

import (
	"fmt"
	"testing"

	"csds/internal/core"
	"csds/internal/ebr"
)

// gotGet and gotSet are the package-level batch callbacks of the
// allocation pins, for the reason countKey is (frame_allocs_test.go).
func gotGet(int, core.Value, bool) { visited++ }
func gotSet(int, bool)             { visited++ }

// allocBatch is 64 of buildFilled's keys spread over 16 blocks, so a
// sharded(32,·) batch crosses about a dozen shards.
func allocBatch() ([]core.Key, []core.KV) {
	keys := make([]core.Key, 64)
	pairs := make([]core.KV, 64)
	for i := range keys {
		keys[i] = core.Key(i * 16)
		pairs[i] = core.KV{K: keys[i], V: keys[i] + 1}
	}
	return keys, pairs
}

// TestBatchAllocs pins the steady state of the batch paths, with and
// without an EBR record. A 64-key MultiGet allocates nothing: the window
// of the interleaved skip-list pass, the routed parts slice and the
// grouped paths' result sink are all pooled, and an elastic epoch is a
// Partition, so its batches cost what sharded(32,·)'s do. A MultiRemove then MultiPut
// of the same 64 keys allocates what the leaf's inserts allocate (one
// object per skip-list node without EBR, its tower inside it, and about
// none with its pools warm; a hash table's bucket nodes one object each
// without EBR and none with it) and must not rise above the pinned
// counts. A hash table's ordered index costs one more object per index
// node, EBR or not, but only once an ordered read has built it: the
// scanned rows take one full Scan first, the others never read in order.
func TestBatchAllocs(t *testing.T) {
	keys, pairs := allocBatch()
	for _, tc := range []struct {
		spec    string
		scanned bool       // one full Scan before measuring
		pair    [2]float64 // MultiRemove+MultiPut bounds: without, with EBR
	}{
		{"skiplist/herlihy", false, [2]float64{64, 1}},
		{"sharded(32,skiplist/herlihy)", false, [2]float64{64, 1}},
		{"striped(32,skiplist/herlihy)", false, [2]float64{64, 1}},
		{"hashtable/lazy", false, [2]float64{64, 0}},
		{"sharded(32,hashtable/lazy)", false, [2]float64{64, 0}},
		{"elastic(32,skiplist/herlihy)", false, [2]float64{64, 1}},
		{"elastic(32,hashtable/lazy)", false, [2]float64{64, 0}},
		{"hashtable/lazy", true, [2]float64{128, 64}},
		{"sharded(32,hashtable/lazy)", true, [2]float64{128, 64}},
		{"elastic(32,hashtable/lazy)", true, [2]float64{128, 64}},
	} {
		for e, useEBR := range []bool{false, true} {
			name := fmt.Sprintf("%s/ebr=%v", tc.spec, useEBR)
			if tc.scanned {
				name = fmt.Sprintf("%s/scanned/ebr=%v", tc.spec, useEBR)
			}
			t.Run(name, func(t *testing.T) {
				var dom *ebr.Domain
				if useEBR {
					dom = ebr.NewDomain()
				}
				s, c := buildFilled(t, tc.spec, dom)
				if tc.scanned {
					s.(core.Scanner).Scan(c, core.KeyMin, core.KeyMax, func(core.Key, core.Value) bool { return true })
				}
				b := s.(core.Batcher)
				get := testing.AllocsPerRun(200, func() { b.MultiGet(c, keys, gotGet) })
				pair := testing.AllocsPerRun(200, func() {
					b.MultiRemove(c, keys, gotSet)
					b.MultiPut(c, pairs, gotSet)
				})
				if get != 0 {
					t.Errorf("64-key MultiGet: %v allocs, want 0", get)
				}
				if pair > tc.pair[e] {
					t.Errorf("MultiRemove+MultiPut of 64 keys: %v allocs, want at most %v", pair, tc.pair[e])
				}
			})
		}
	}
}

// TestCombinedBatchAllocs pins the two write paths that apply a batch
// through an inner Batcher under a lock: the single-shard flat-combining
// apply (also under elastic's resize gates) and the read cache's
// optimistic batch update. Their slot and key
// buffers are carved from the batch scratch and their inner callbacks
// come from the pooled sink. The one allocation left in the cache's
// update is htm.Try's lock set, which escapes through the body callback.
func TestCombinedBatchAllocs(t *testing.T) {
	keys, pairs := allocBatch()
	for _, tc := range []struct {
		spec  string
		write func(b core.Batcher, c *core.Ctx)
		want  float64
	}{
		{"sharded(1,skiplist/herlihy)", func(b core.Batcher, c *core.Ctx) { b.MultiRemove(c, keys[:8], gotSet) }, 0},
		{"elastic(1,skiplist/herlihy)", func(b core.Batcher, c *core.Ctx) { b.MultiRemove(c, keys[:8], gotSet) }, 0},
		{"readcache(64,sharded(4,hashtable/lazy))", func(b core.Batcher, c *core.Ctx) { b.MultiPut(c, pairs[:8], gotSet) }, 1},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			s, c := buildFilled(t, tc.spec, nil)
			b := s.(core.Batcher)
			if got := testing.AllocsPerRun(200, func() { tc.write(b, c) }); got > tc.want {
				t.Fatalf("%v allocs per batch, want at most %v", got, tc.want)
			}
		})
	}
}
