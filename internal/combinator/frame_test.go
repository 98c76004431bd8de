package combinator

import (
	"fmt"
	"testing"

	"csds/internal/core"
	"csds/internal/ebr"
)

// Tests for the pooled page frame under every Scan/CursorNext
// (core/frame.go): nesting, and what a frame must survive — early stop,
// a panicking callback, a callback that scans another structure on the
// same context. The steady-state allocation pins are in
// frame_allocs_test.go.

// frameKeys is how many even keys buildFilled inserts (0, 2, …).
const frameKeys = 512

func buildFilled(t testing.TB, spec string, dom *ebr.Domain) (core.Set, *core.Ctx) {
	t.Helper()
	s, err := core.Build(spec, core.Options{ExpectedSize: frameKeys, KeySpan: 2 * frameKeys, Domain: dom})
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewCtx(0)
	if dom != nil {
		c.Epoch = dom.Register()
		t.Cleanup(c.Epoch.Unregister)
	}
	for k := core.Key(0); k < 2*frameKeys; k += 2 {
		s.Put(c, k, k+1)
	}
	return s, c
}

// collectPages pages s's window [lo, hi) to exhaustion at page size max.
func collectPages(t *testing.T, s core.Set, c *core.Ctx, lo, hi core.Key, max int) []core.ScanPair {
	t.Helper()
	var got []core.ScanPair
	for pos, done := lo, false; !done; {
		n := 0
		pos, done = s.(core.Cursor).CursorNext(c, pos, hi, max, func(k core.Key, v core.Value) bool {
			got = append(got, core.ScanPair{K: k, V: v})
			n++
			return true
		})
		if n > max {
			t.Fatalf("page delivered %d keys over budget %d", n, max)
		}
	}
	return got
}

func collectScan(s core.Set, c *core.Ctx, lo, hi core.Key) []core.ScanPair {
	var got []core.ScanPair
	s.(core.Scanner).Scan(c, lo, hi, func(k core.Key, v core.Value) bool {
		got = append(got, core.ScanPair{K: k, V: v})
		return true
	})
	return got
}

func samePairs(t *testing.T, what string, got, want []core.ScanPair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d mappings, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d holds %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestFrameNesting: composites over composites take one frame per level
// (merge over drain over guarded page; cache over merge over guarded
// page) and must deliver exactly what the single structure does.
func TestFrameNesting(t *testing.T) {
	ref, rc := buildFilled(t, "skiplist/herlihy", nil)
	for _, spec := range []string{
		"sharded(4,striped(2,skiplist/herlihy))",
		"readcache(64,sharded(4,hashtable/lazy))",
	} {
		t.Run(spec, func(t *testing.T) {
			s, c := buildFilled(t, spec, nil)
			for _, w := range []struct{ lo, hi core.Key }{{0, 2 * frameKeys}, {101, 613}, {40, 41}} {
				want := collectScan(ref, rc, w.lo, w.hi)
				samePairs(t, fmt.Sprintf("Scan[%d,%d)", w.lo, w.hi), collectScan(s, c, w.lo, w.hi), want)
				for _, max := range []int{1, 7, 16, 300} {
					samePairs(t, fmt.Sprintf("pages of %d over [%d,%d)", max, w.lo, w.hi), collectPages(t, s, c, w.lo, w.hi, max), want)
				}
			}
		})
	}
}

// TestFrameSurvivesCallbacks: the three things a user callback can do to
// the frames under it. Stopping early resumes one past the last key it
// took; panicking mid-replay (and being recovered by the caller, as the
// server's connection handler does) leaves the next call on the same
// context correct; and scanning a different structure with the same
// context mid-replay gets frames of its own, disturbing neither side.
func TestFrameSurvivesCallbacks(t *testing.T) {
	other, _ := buildFilled(t, "sharded(4,skiplist/herlihy)", nil)
	for _, spec := range []string{
		"skiplist/herlihy",
		"sharded(32,skiplist/herlihy)",
		"striped(4,skiplist/herlihy)",
		"elastic(8,list/lazy)",
	} {
		t.Run(spec, func(t *testing.T) {
			s, c := buildFilled(t, spec, nil)
			cur, scn := s.(core.Cursor), s.(core.Scanner)
			want := collectPages(t, s, c, 0, 2*frameKeys, 64)
			if len(want) != frameKeys {
				t.Fatalf("reference pass saw %d keys, want %d", len(want), frameKeys)
			}

			taken := 0
			next, done := cur.CursorNext(c, 0, 2*frameKeys, 50, func(core.Key, core.Value) bool { taken++; return taken < 5 })
			if done || taken != 5 || next != want[4].K+1 {
				t.Fatalf("early stop: next=%d done=%v after %d keys, want %d false 5", next, done, taken, want[4].K+1)
			}
			taken = 0
			if scn.Scan(c, 0, 2*frameKeys, func(core.Key, core.Value) bool { taken++; return taken < 5 }) || taken != 5 {
				t.Fatalf("early-stopped Scan reported finished after %d keys", taken)
			}

			for _, call := range []func(f func(core.Key, core.Value) bool){
				func(f func(core.Key, core.Value) bool) { cur.CursorNext(c, 0, 2*frameKeys, 50, f) },
				func(f func(core.Key, core.Value) bool) { scn.Scan(c, 0, 2*frameKeys, f) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatal("callback panic did not propagate")
						}
					}()
					n := 0
					call(func(core.Key, core.Value) bool {
						if n++; n == 3 {
							panic("callback")
						}
						return true
					})
				}()
				samePairs(t, "pages after a recovered panic", collectPages(t, s, c, 0, 2*frameKeys, 16), want)
				samePairs(t, "scan after a recovered panic", collectScan(s, c, 0, 2*frameKeys), want)
			}

			var outer []core.ScanPair
			cur.CursorNext(c, 0, 2*frameKeys, 40, func(k core.Key, v core.Value) bool {
				outer = append(outer, core.ScanPair{K: k, V: v})
				samePairs(t, "scan of another set mid-replay", collectScan(other, c, 0, 2*frameKeys), want)
				samePairs(t, "pages of another set mid-replay", collectPages(t, other, c, 0, 2*frameKeys, 16), want)
				return true
			})
			samePairs(t, "page interleaved with another set's scans", outer, want[:40])
		})
	}
}
