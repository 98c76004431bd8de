// Benchmarks for the streaming cursor read path: the page-cost contract
// made measurable. The headline rows are (1) cursor pages on a 64k-key
// monolithic hash table against the ordered structures — the ordered
// key index buys O(log n + page) pages where the pre-index table paid
// an O(table) collect-and-sort per page, so the hash table must sit in
// the same regime as (and in practice beats: its seek is a skip-list
// descent, not a list walk) the list structures — and (2) a wide
// sharded composite's merge pages, where the lazy streaming merge pulls
// ~one page worth of keys instead of the eager merge's 32 pages. Run
// with -benchmem: every cell reports 1 alloc/op — the benchmark's own
// callback closure — because the collect buffer, the merge streams, the
// heap and the callbacks the pulls deliver into all come from the call's
// pooled page frame (internal/core/frame.go), EBR or not.
package csds

import (
	"fmt"
	"testing"

	"csds/internal/core"
)

// benchCursorPages measures single-threaded page latency over a
// pre-filled structure: b.N pages of pageLen keys, walking the whole
// window round-robin so resume positions land everywhere in the domain.
func benchCursorPages(b *testing.B, spec string, size int, pageLen int) {
	span := core.Key(2 * size)
	s, err := Build(spec, Options{ExpectedSize: size, KeySpan: span})
	if err != nil {
		b.Fatal(err)
	}
	c := NewCtx(0)
	for k := core.Key(0); k < span; k += 2 {
		s.Put(c, k, k)
	}
	cur, ok := s.(core.Cursor)
	if !ok {
		b.Fatalf("%s does not implement core.Cursor", spec)
	}
	keys := 0
	pos := core.Key(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, done := cur.CursorNext(c, pos, span, pageLen, func(core.Key, core.Value) bool {
			keys++
			return true
		})
		pos = next
		if done {
			pos = 0
		}
	}
	b.StopTimer()
	if keys == 0 {
		b.Fatal("no keys paged")
	}
	b.ReportMetric(float64(keys)/float64(b.N), "keys/page")
	b.ReportMetric(float64(c.Stats.PagePullKeys)/float64(b.N), "pulledkeys/page")
}

// BenchmarkCursorPage64k: page serving rate at 64k keys. The acceptance
// bar of the streaming-cursor work: hashtable/lazy within 5x of the
// list structures (it was O(table)-bound before the ordered index).
func BenchmarkCursorPage64k(b *testing.B) {
	for _, spec := range []string{
		"hashtable/lazy",
		"hashtable/striped",
		"list/lazy",
		"list/harris",
		"skiplist/pugh",
	} {
		b.Run("alg="+spec, func(b *testing.B) {
			benchCursorPages(b, spec, 1<<16, 64)
		})
	}
}

// BenchmarkCursorMergeWide: streaming merge pages on wide composites —
// the k× overcollect fix. pulledkeys/page is the proof metric: ~page on
// the streaming merge, k×page on the old eager merge.
func BenchmarkCursorMergeWide(b *testing.B) {
	for _, spec := range []string{
		"sharded(8,list/lazy)",
		"sharded(32,list/lazy)",
		"elastic(32,list/lazy)",
	} {
		for _, pageLen := range []int{64, 512} {
			b.Run(fmt.Sprintf("alg=%s/page=%d", spec, pageLen), func(b *testing.B) {
				benchCursorPages(b, spec, 1<<16, pageLen)
			})
		}
	}
}
