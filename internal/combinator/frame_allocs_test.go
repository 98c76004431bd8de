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

// visited and countKey are the package-level callback of the allocation
// pins: a closure built at the call site would itself escape through the
// interface call and charge the measurement one allocation per run.
var visited int

func countKey(core.Key, core.Value) bool { visited++; return true }

// TestFrameAllocs pins the steady state of the ordered read path: a
// leaf's guarded scan or page allocates nothing, and neither does the
// composite merge above it — with and without an EBR record on the
// context, because frames are pooled unconditionally. (Before the frame:
// 6 objects per leaf pull, 190+ per sharded(32) page.) The four calls are
// chosen so sharded(32,·) takes each of its ordered paths: a page inside
// the block drain, a page that exhausts the drain's pull cap on empty
// blocks and finishes through the merge, a scan narrow enough for the
// block walk, and one wide enough (> 32 blocks) for collect-and-merge.
func TestFrameAllocs(t *testing.T) {
	for _, spec := range []string{
		"skiplist/herlihy",
		"hashtable/lazy",
		"sharded(32,skiplist/herlihy)",
		"elastic(8,list/lazy)",
	} {
		for _, useEBR := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ebr=%v", spec, useEBR), func(t *testing.T) {
				var dom *ebr.Domain
				if useEBR {
					dom = ebr.NewDomain()
				}
				s, c := buildFilled(t, spec, dom)
				pos := core.Key(0)
				page := testing.AllocsPerRun(200, func() {
					next, done := s.(core.Cursor).CursorNext(c, pos, 2*frameKeys, 16, countKey)
					if pos = next; done {
						pos = 0
					}
				})
				tail := testing.AllocsPerRun(200, func() {
					s.(core.Cursor).CursorNext(c, 2*frameKeys-24, core.KeyMax, 16, countKey)
				})
				scan := testing.AllocsPerRun(200, func() {
					s.(core.Scanner).Scan(c, 100, 228, countKey)
				})
				wide := testing.AllocsPerRun(200, func() {
					s.(core.Scanner).Scan(c, -2*frameKeys, 4*frameKeys, countKey)
				})
				if page != 0 || tail != 0 || scan != 0 || wide != 0 {
					t.Fatalf("allocs per call: CursorNext %v, give-up CursorNext %v, Scan %v, wide Scan %v; want 0", page, tail, scan, wide)
				}
				if visited == 0 {
					t.Fatal("the measured calls visited nothing")
				}
			})
		}
	}
}
