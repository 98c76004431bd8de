// Benchmarks for the structure combinators: the horizontal-composition
// layer over the paper's algorithms. The headline comparison is a plain
// lazy list against its 16-way hash-sharded composite, under the uniform
// workload of the main figures and the Zipfian skew of §5.2 — sharding
// shortens every traversal by 16x and splits lock contention across
// shards, while the skewed workload shows the limit of that: popular keys
// still pile onto their home shard. The read-cache rows show the
// complementary lever for skew: hot keys collapse to one atomic load.
package csds

import (
	"fmt"
	"testing"

	"csds/internal/harness"
	"csds/internal/workload"
)

// BenchmarkCombinatorShardedList: plain vs sharded lazy list, uniform and
// Zipfian key popularity (reported metrics as in ablation_bench_test.go).
func BenchmarkCombinatorShardedList(b *testing.B) {
	for _, alg := range []string{"list/lazy", "sharded(16,list/lazy)"} {
		for _, zipf := range []float64{0, 0.8} {
			b.Run(fmt.Sprintf("alg=%s/zipf=%g", alg, zipf), func(b *testing.B) {
				benchCell(b, harness.Config{
					Algorithm: alg, Threads: 20,
					Workload: workload.Config{Size: 1024, UpdateRatio: 0.1, ZipfS: zipf},
				})
			})
		}
	}
}

// BenchmarkCombinatorReadCache: read-through caching over the featured
// BST under a read-mostly Zipfian workload (the cache's home turf) and a
// write-heavier mix (its worst case: invalidation churn).
func BenchmarkCombinatorReadCache(b *testing.B) {
	for _, alg := range []string{"bst/tk", "readcache(1024,bst/tk)"} {
		for _, upd := range []float64{0.01, 0.5} {
			b.Run(fmt.Sprintf("alg=%s/updates=%g", alg, upd), func(b *testing.B) {
				benchCell(b, harness.Config{
					Algorithm: alg, Threads: 20,
					Workload: workload.Config{Size: 2048, UpdateRatio: upd, ZipfS: 0.8},
				})
			})
		}
	}
}

// BenchmarkCombinatorStripedSkiplist: ordered key-space striping over the
// featured skip list at increasing widths.
func BenchmarkCombinatorStripedSkiplist(b *testing.B) {
	for _, alg := range []string{"skiplist/herlihy", "striped(4,skiplist/herlihy)", "striped(8,skiplist/herlihy)"} {
		b.Run(fmt.Sprintf("alg=%s", alg), func(b *testing.B) {
			benchCell(b, harness.Config{
				Algorithm: alg, Threads: 20,
				Workload: workload.Config{Size: 4096, UpdateRatio: 0.2},
			})
		})
	}
}

// BenchmarkCombinatorElastic: the cost and payoff of elastic resharding.
// The static rows compare sharded(8) with elastic(8) at rest — the
// steady-state elasticity tax is one atomic map load plus one flag load
// per operation, so elastic should track the static composite within a
// few percent (the acceptance bar is 15%). The ramp row starts at width 1
// and grows to 8 mid-run — the scenario a load-tracking deployment runs:
// throughput starts at single-instance level and converges toward the
// static sharded(8) rows as the resize settles.
func BenchmarkCombinatorElastic(b *testing.B) {
	wl := workload.Config{Size: 1024, UpdateRatio: 0.1}
	for _, alg := range []string{"sharded(8,list/lazy)", "elastic(8,list/lazy)"} {
		b.Run(fmt.Sprintf("alg=%s/static", alg), func(b *testing.B) {
			benchCell(b, harness.Config{Algorithm: alg, Threads: 20, Workload: wl})
		})
	}
	b.Run("alg=elastic(1,list/lazy)/ramp-to-8", func(b *testing.B) {
		benchCell(b, harness.Config{
			Algorithm: "elastic(1,list/lazy)", Threads: 20, Workload: wl,
			ResizeSteps: []harness.ResizeStep{{At: benchDur / 4, Width: 8}},
		})
	})
	b.Run("alg=elastic(1,list/lazy)/policy-growwait", func(b *testing.B) {
		benchCell(b, harness.Config{
			Algorithm: "elastic(1,list/lazy)", Threads: 20, Workload: wl,
			Elastic: &harness.ElasticPolicy{
				Interval: benchDur / 8, GrowWait: 0.02, MaxWidth: 8,
			},
		})
	})
}
