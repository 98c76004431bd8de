package combinator

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"csds/internal/core"
)

// Tests for block-hashed routing (route) and the ordered paths it buys
// sharded(N,·): the block walk under Scan, the segment replay of wider
// windows (which striped and elastic composites share), and the block
// drain, with its give-up hand-off to the k-way merge, under CursorNext.
// Everything is checked against a sorted-slice reference.

const blockKeys = 1 << routeBlockBits

// TestRouteBlocks: every key of an aligned block routes to one part,
// whatever the width; negative keys floor to their block; and blocks
// spread like a hash.
func TestRouteBlocks(t *testing.T) {
	starts := []core.Key{
		0, -blockKeys, blockKeys, 1 << 40, -(1 << 40),
		core.KeyMin,                 // the first block
		core.KeyMax - blockKeys + 1, // the last block, ending at KeyMax
	}
	for _, n := range []int{1, 3, 16, 32} {
		for _, lo := range starts {
			want := route(lo, n)
			if want < 0 || want >= n {
				t.Fatalf("route(%d, %d) = %d, outside [0, %d)", lo, n, want, n)
			}
			for i := core.Key(1); i < blockKeys; i++ {
				if got := route(lo+i, n); got != want {
					t.Fatalf("n=%d: key %d routes to part %d, its block's first key %d to part %d", n, lo+i, got, lo, want)
				}
			}
		}
	}
	// -64..-1 and 0..63 are two blocks, not one straddling zero: at a
	// width where a chance collision is a 2^-16 event they part ways.
	if route(-1, maxPartitions) == route(0, maxPartitions) {
		t.Fatal("keys -1 and 0 share a part at width 2^16 — the blocks around zero are not distinct")
	}
	const parts, keys = 16, 1 << 16
	var load [parts]int
	for k := core.Key(0); k < keys; k++ {
		load[route(k, parts)]++
	}
	for i, l := range load {
		if mean := keys / parts; l < mean/2 || l > 2*mean {
			t.Fatalf("part %d of %d holds %d of %d consecutive keys, outside [1/2, 2]x the mean %d", i, parts, l, keys, mean)
		}
	}
}

// walkSpecs are the two shapes the walk tests run on: a narrow ordered
// leaf and the wide hash-table composite csdsd serves by default.
var walkSpecs = []string{"sharded(4,skiplist/herlihy)", "sharded(32,hashtable/lazy)"}

// buildKeys builds spec holding exactly keys (value = key + 1) and
// returns it with the sorted reference.
func buildKeys(t *testing.T, spec string, keys []core.Key) (core.Set, *core.Ctx, []core.ScanPair) {
	t.Helper()
	s, err := core.Build(spec, core.Options{ExpectedSize: len(keys)})
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewCtx(0)
	ref := make([]core.ScanPair, 0, len(keys))
	for _, k := range keys {
		if !s.Put(c, k, k+1) {
			t.Fatalf("Put(%d) failed", k)
		}
		ref = append(ref, core.ScanPair{K: k, V: k + 1})
	}
	core.SortScanPairs(ref)
	return s, c, ref
}

// window is the reference's answer for [lo, hi).
func window(ref []core.ScanPair, lo, hi core.Key) []core.ScanPair {
	var w []core.ScanPair
	for _, p := range ref {
		if p.K >= lo && p.K < hi {
			w = append(w, p)
		}
	}
	return w
}

// scanSpy wraps one shard and logs the windows of the scans it serves,
// which is what tells a block walk (windows clipped to blocks) from a
// merge (every shard scanned once over the whole window).
type scanSpy struct {
	core.Set
	log *[][2]core.Key
}

func (s scanSpy) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	*s.log = append(*s.log, [2]core.Key{lo, hi})
	return s.Set.(core.Scanner).Scan(c, lo, hi, f)
}

// TestShardedScanWalkAndMerge: scans of every shape agree with the
// reference, and the walk/merge threshold sits exactly at one block per
// shard. Wide windows — dense, and sparse ones whose few keys sit
// billions of empty blocks apart — must come out of the segment replay
// exact on every partition that uses it: sharded past N blocks, elastic
// always, and striped's stripe walk alongside.
func TestShardedScanWalkAndMerge(t *testing.T) {
	var keys []core.Key
	for k := core.Key(-40 * blockKeys); k < 40*blockKeys; k += 3 {
		keys = append(keys, k)
	}
	for i := core.Key(0); i < 3*blockKeys; i += 5 {
		keys = append(keys, core.KeyMin+1+i, core.KeyMax-1-i)
	}
	sparse := []core.Key{
		core.KeyMin + 1, core.KeyMin + 100, -(1 << 55), // from KeyMin+1
		-(1 << 35), -1_000_000, -65, // negative
		1 << 52, 1 << 60, core.KeyMax - 1, // under hi = KeyMax
	}
	for _, spec := range append(walkSpecs, "elastic(4,skiplist/herlihy)", "elastic(32,hashtable/lazy)", "striped(4,skiplist/herlihy)", "striped(32,hashtable/lazy)") {
		t.Run(spec, func(t *testing.T) {
			s, c, ref := buildKeys(t, spec, keys)
			var n core.Key
			switch p := s.(type) {
			case *Partition:
				n = core.Key(p.Parts())
			case *Elastic:
				n = core.Key(p.Width())
			}
			wide := []struct {
				name   string
				lo, hi core.Key
			}{
				{"N+1 blocks", -3*blockKeys + 5, (n-2)*blockKeys + 5},
				{"4N blocks", -2*n*blockKeys - 7, 2*n*blockKeys - 7},
				{"the whole line", core.KeyMin + 1, core.KeyMax},
			}
			for _, w := range wide {
				samePairs(t, w.name, collectScan(s, c, w.lo, w.hi), window(ref, w.lo, w.hi))
			}
			ss, sc, sref := buildKeys(t, spec, sparse)
			for _, w := range []struct {
				name   string
				lo, hi core.Key
			}{
				{"three keys under KeyMax", 1 << 50, core.KeyMax},
				{"negative keys", -(1 << 40), -1},
				{"from KeyMin+1", core.KeyMin + 1, -(1 << 50)},
				{"sparse whole line", core.KeyMin + 1, core.KeyMax},
			} {
				got := collectScan(ss, sc, w.lo, w.hi)
				if want := window(sref, w.lo, w.hi); len(want) < 3 {
					t.Fatalf("%s: the reference holds %d keys, want at least 3", w.name, len(want))
				}
				samePairs(t, w.name, got, window(sref, w.lo, w.hi))
			}
			// Early stop on the walk, the dense replay and the sparse
			// replay: nothing is delivered past the key that stopped it.
			for _, tc := range []struct {
				s   core.Set
				c   *core.Ctx
				ref []core.ScanPair
				w   [2]core.Key
			}{
				{s, c, ref, [2]core.Key{-100, 100}},
				{s, c, ref, [2]core.Key{core.KeyMin + 1, core.KeyMax}},
				{ss, sc, sref, [2]core.Key{core.KeyMin + 1, core.KeyMax}},
			} {
				want := window(tc.ref, tc.w[0], tc.w[1])[:5]
				var got []core.ScanPair
				finished := tc.s.(core.Scanner).Scan(tc.c, tc.w[0], tc.w[1], func(k core.Key, v core.Value) bool {
					got = append(got, core.ScanPair{K: k, V: v})
					return len(got) < 5
				})
				if finished {
					t.Fatalf("scan of %v stopped by f reported finished", tc.w)
				}
				samePairs(t, fmt.Sprint("early stop in ", tc.w), got, want)
			}
			p, ok := s.(*Partition)
			if !ok || p.r.per != 0 {
				return
			}
			// Block-hashed: which path each window took, seen from the
			// shards.
			var log [][2]core.Key
			for i, sh := range p.parts {
				p.parts[i] = scanSpy{sh, &log}
			}
			for _, tc := range []struct {
				name   string
				lo, hi core.Key
				walk   bool
			}{
				{"N aligned blocks", -2 * blockKeys, (n - 2) * blockKeys, true},
				{"N+1 blocks by one key", -2 * blockKeys, (n-2)*blockKeys + 1, false},
				{"N blocks, unaligned", -2*blockKeys + 7, (n-2)*blockKeys - 9, true},
				{"N+1 blocks, unaligned", -2*blockKeys - 1, (n-2)*blockKeys - 9, false},
				{wide[0].name, wide[0].lo, wide[0].hi, false},
				{wide[1].name, wide[1].lo, wide[1].hi, false},
				{"inside one block", 70, 100, true},
				{"across zero", -100, 100, true},
				{"from KeyMin+1", core.KeyMin + 1, core.KeyMin + 1 + 2*blockKeys, true},
				{"to KeyMax", core.KeyMax - 2*blockKeys, core.KeyMax, true},
				{"the whole line", core.KeyMin + 1, core.KeyMax, false},
				{"empty", 5, 5, true},
			} {
				log = log[:0]
				samePairs(t, tc.name, collectScan(p, c, tc.lo, tc.hi), window(ref, tc.lo, tc.hi))
				if tc.lo >= tc.hi {
					if len(log) != 0 {
						t.Fatalf("%s: %d shard scans for an empty window", tc.name, len(log))
					}
					continue
				}
				if !tc.walk {
					// Merge: each shard once, over the caller's window.
					if len(log) != int(n) {
						t.Fatalf("%s: %d shard scans, want one per shard (%d)", tc.name, len(log), n)
					}
					for _, w := range log {
						if w != [2]core.Key{tc.lo, tc.hi} {
							t.Fatalf("%s: a shard scanned %v, want the whole window", tc.name, w)
						}
					}
					continue
				}
				// Walk: one scan per block, ascending, abutting, each
				// inside one aligned block, together covering [lo, hi).
				if len(log) > int(n) {
					t.Fatalf("%s: walk made %d shard scans on %d shards", tc.name, len(log), n)
				}
				at := tc.lo
				for _, w := range log {
					if w[0] != at || w[1] <= w[0] || w[0]>>routeBlockBits != (w[1]-1)>>routeBlockBits {
						t.Fatalf("%s: walk scanned %v at position %d — not one block's abutting slice", tc.name, w, at)
					}
					at = w[1]
				}
				if at != tc.hi {
					t.Fatalf("%s: walk ended at %d, want %d", tc.name, at, tc.hi)
				}
			}
		})
	}
}

// TestShardedPageBoundaries: done is true exactly when the page reached
// the end of the window — a budget that fills on a block's last key, or
// one key short of hi, leaves a resumable page.
func TestShardedPageBoundaries(t *testing.T) {
	var keys []core.Key
	for k := core.Key(0); k < 4*blockKeys; k++ {
		keys = append(keys, k)
	}
	const hi = 4 * blockKeys
	for _, spec := range walkSpecs {
		t.Run(spec, func(t *testing.T) {
			set, c, ref := buildKeys(t, spec, keys)
			s := set.(*Partition)
			for _, tc := range []struct {
				name     string
				pos      core.Key
				max      int
				wantNext core.Key
				wantDone bool
			}{
				{"fills on a block's last key", 0, blockKeys, blockKeys, false},
				{"fills on a later block's last key", 10, 2*blockKeys - 10, 2 * blockKeys, false},
				{"fills exactly at hi", 3 * blockKeys, blockKeys, hi, true},
				{"fills exactly at hi over two blocks", 2 * blockKeys, 2 * blockKeys, hi, true},
				{"fills one key short of hi", 3 * blockKeys, blockKeys - 1, hi - 1, false},
				{"budget to spare", 3*blockKeys + 5, blockKeys, hi, true},
				{"zero budget still makes progress", 7, 0, 8, false},
			} {
				var got []core.ScanPair
				next, done := s.CursorNext(c, tc.pos, hi, tc.max, func(k core.Key, v core.Value) bool {
					got = append(got, core.ScanPair{K: k, V: v})
					return true
				})
				if next != tc.wantNext || done != tc.wantDone {
					t.Fatalf("%s: (next, done) = (%d, %v), want (%d, %v)", tc.name, next, done, tc.wantNext, tc.wantDone)
				}
				samePairs(t, tc.name, got, window(ref, tc.pos, tc.wantNext))
			}
			// Early stop inside the walk resumes one past the key that
			// stopped it, mid-block and on a block's last key alike.
			for _, stopAt := range []core.Key{blockKeys + 3, 2*blockKeys - 1} {
				next, done := s.CursorNext(c, blockKeys-5, hi, 1000, func(k core.Key, _ core.Value) bool { return k != stopAt })
				if next != stopAt+1 || done {
					t.Fatalf("stop at %d: (next, done) = (%d, %v), want (%d, false)", stopAt, next, done, stopAt+1)
				}
			}
			samePairs(t, "paged to exhaustion", collectPages(t, s, c, -50, hi+50, 37), ref)
		})
	}
}

// TestShardedSparsePagesHandOff: one key per 10^6 under hi = KeyMax, so
// every page exhausts the walk's pull cap on empty blocks and finishes
// through the merge inside the same call — still ascending, exactly
// once, within budget, and for at most twice the merge's pulls.
func TestShardedSparsePagesHandOff(t *testing.T) {
	var keys []core.Key
	for i := core.Key(-60); i < 60; i++ {
		keys = append(keys, i*1_000_000+17)
	}
	const max = 5
	for _, spec := range walkSpecs {
		t.Run(spec, func(t *testing.T) {
			set, c, ref := buildKeys(t, spec, keys)
			s := set.(*Partition)
			bound := uint64(2*s.Parts() + 1)
			var got []core.ScanPair
			pos, done, pages := core.Key(core.KeyMin+1), false, 0
			for !done {
				before, n := c.Stats.PagePulls, 0
				pos, done = s.CursorNext(c, pos, core.KeyMax, max, func(k core.Key, v core.Value) bool {
					got = append(got, core.ScanPair{K: k, V: v})
					n++
					return true
				})
				if n > max {
					t.Fatalf("page %d delivered %d keys over budget %d", pages, n, max)
				}
				if !done && (n != max || pos != got[len(got)-1].K+1) {
					t.Fatalf("page %d: %d keys, next %d after key %d, not done — want a full page resuming one past its last key", pages, n, pos, got[len(got)-1].K)
				}
				if pulls := c.Stats.PagePulls - before; pulls > bound {
					t.Fatalf("page %d cost %d pulls, bound 2N+1 = %d", pages, pulls, bound)
				}
				if pages++; pages > len(keys) {
					t.Fatal("iteration never finished")
				}
			}
			if !slices.IsSortedFunc(got, func(a, b core.ScanPair) int { return cmp.Compare(a.K, b.K) }) {
				t.Fatal("pages are not ascending")
			}
			samePairs(t, "sparse iteration", got, ref)
			// Early stop inside the hand-off: the walk finds nothing in
			// its N blocks, the merge delivers, f stops it.
			stopAt := ref[62].K
			next, done := s.CursorNext(c, ref[60].K+1, core.KeyMax, max, func(k core.Key, _ core.Value) bool { return k != stopAt })
			if next != stopAt+1 || done {
				t.Fatalf("stop at %d in the hand-off: (next, done) = (%d, %v), want (%d, false)", stopAt, next, done, stopAt+1)
			}
		})
	}
}

// TestShardedWalkPullBound pins what the block drain buys a page: on a
// dense half-full sharded(32) a 16-key page pulls a couple of shards,
// not 32, and materializes about what it delivers.
func TestShardedWalkPullBound(t *testing.T) {
	const span, max = 1 << 14, 16
	for _, spec := range []string{"sharded(32,skiplist/herlihy)", "sharded(32,hashtable/lazy)"} {
		t.Run(spec, func(t *testing.T) {
			s, err := core.Build(spec, core.Options{ExpectedSize: span / 2, KeySpan: span})
			if err != nil {
				t.Fatal(err)
			}
			fill := core.NewCtx(0)
			for k := core.Key(0); k < span; k += 2 {
				s.Put(fill, k, k)
			}
			c := core.NewCtx(1)
			delivered, pages := 0, 0
			for pos, done := core.Key(0), false; !done; pages++ {
				pos, done = s.(core.Cursor).CursorNext(c, pos, span, max, func(core.Key, core.Value) bool {
					delivered++
					return true
				})
			}
			if delivered != span/2 {
				t.Fatalf("iteration delivered %d keys, want %d", delivered, span/2)
			}
			pulls, pulled := float64(c.Stats.PagePulls), float64(c.Stats.PagePullKeys)
			if perPage := pulls / float64(pages); perPage > 3 {
				t.Fatalf("%.2f pulls per %d-key page over %d pages, want <= 3 (a merge makes 32)", perPage, max, pages)
			}
			if over := pulled / float64(delivered); over > 1.1 {
				t.Fatalf("pulled %.0f keys to deliver %d (overcollect %.3f), want <= 1.1", pulled, delivered, over)
			}
		})
	}
}
