// Range-scan conformance battery: RunScanner checks that a core.Scanner
// implementation returns linearizable snapshots — sequential exactness
// against a model, and, under concurrent insert/remove churn, snapshots
// consistent with *some* linearization of the history:
//
//   - per-key window consistency: a key that is present (absent) for the
//     whole scan window must (must not) be reported — concretely, anchor
//     keys that are never updated always appear with their original
//     values, and keys never inserted never appear;
//   - no duplicates, ever;
//   - ascending key order (every structure in the module, hash tables
//     included through their ordered key index, and every combinator over
//     them scans ascending);
//   - only in-range keys, and only keys the workload could have inserted.
//
// On core.Resizable sets the churn body runs again while the partition
// width is grown and shrunk (ScanUnderResize), so elastic composites prove
// their scans correct across concurrent Resizes.
package settest

import (
	"fmt"
	"sync"
	"testing"

	"csds/internal/core"
	"csds/internal/xrand"
)

// RunScanner executes the range-scan battery. The built set must
// implement core.Scanner.
func RunScanner(t *testing.T, f Factory) {
	t.Helper()
	t.Run("ScanSequentialModel", func(t *testing.T) { testScanSequential(t, f) })
	t.Run("ScanEarlyStop", func(t *testing.T) { testScanEarlyStop(t, f) })
	t.Run("ScanBounds", func(t *testing.T) { testScanBounds(t, f) })
	runLegs(t, f, []leg{
		{"ScanUnderChurn", "ScanUnderResize", scanOptions(), runScanUnderChurn},
		{"ScanContendedValidation", "", core.Options{ExpectedSize: 64, KeySpan: 32}, runScanContended},
	})
}

// scanOptions sizes the battery's structures: KeySpan pins the partition
// domain of range-partitioned composites to the battery's key range.
func scanOptions() core.Options {
	return core.Options{ExpectedSize: 512, KeySpan: scanKeySpan}
}

const scanKeySpan = 1024

// anchorVal distinguishes anchor mappings from churn mappings (which
// store v == k).
func anchorVal(k core.Key) core.Value { return core.Value(k)*2 + 1 }

// checkSnapshot verifies the invariants every collected scan must
// satisfy regardless of interleaving (see snapshotViolation, the one
// copy of the checker). anchors maps permanently-present keys to their
// fixed values; churnOK reports whether a non-anchor key could
// legitimately appear.
func checkSnapshot(t *testing.T, got []core.ScanPair, lo, hi core.Key,
	anchors map[core.Key]core.Value, churnOK func(core.Key) bool) {
	t.Helper()
	if msg := snapshotViolation(got, lo, hi, anchors, churnOK); msg != "" {
		t.Fatal(msg)
	}
}

// collect runs one Scan into a slice.
func collect(c *core.Ctx, sc core.Scanner, lo, hi core.Key) []core.ScanPair {
	var got []core.ScanPair
	sc.Scan(c, lo, hi, func(k core.Key, v core.Value) bool {
		got = append(got, core.ScanPair{K: k, V: v})
		return true
	})
	return got
}

// testScanSequential checks scans against a model map with no
// concurrency: every window must match the model's slice exactly.
func testScanSequential(t *testing.T, f Factory) {
	s := f(scanOptions())
	sc, ok := s.(core.Scanner)
	if !ok {
		t.Fatalf("settest: %T does not implement core.Scanner", s)
	}
	c := ctx()
	rng := xrand.New(20260729)
	model := map[core.Key]core.Value{}
	for i := 0; i < 2000; i++ {
		k := core.Key(rng.Int63n(scanKeySpan))
		switch rng.Uint64n(3) {
		case 0:
			if _, in := model[k]; !in {
				model[k] = core.Value(i)
			}
			s.Put(c, k, core.Value(i))
		case 1:
			delete(model, k)
			s.Remove(c, k)
		}
		if i%100 != 0 {
			continue
		}
		lo := core.Key(rng.Int63n(scanKeySpan))
		hi := lo + core.Key(1+rng.Int63n(200))
		got := collect(c, sc, lo, hi)
		want := 0
		for k := range model {
			if k >= lo && k < hi {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("step %d: scan [%d, %d) returned %d keys, model has %d", i, lo, hi, len(got), want)
		}
		checkSnapshot(t, got, lo, hi, nil, func(k core.Key) bool {
			_, in := model[k]
			return in
		})
		for _, p := range got {
			if model[p.K] != p.V {
				t.Fatalf("step %d: scan returned (%d, %d), model has value %d", i, p.K, p.V, model[p.K])
			}
		}
	}
	// Full-domain scan equals the model.
	if got := collect(c, sc, 0, scanKeySpan); len(got) != len(model) {
		t.Fatalf("full scan returned %d keys, model has %d", len(got), len(model))
	}
}

// testScanEarlyStop checks the early-termination contract: a callback
// that stops must end the scan (return false) after exactly its keys.
func testScanEarlyStop(t *testing.T, f Factory) {
	s := f(scanOptions())
	sc := s.(core.Scanner)
	c := ctx()
	for k := core.Key(0); k < 100; k++ {
		s.Put(c, k, k)
	}
	calls := 0
	done := sc.Scan(c, 0, 100, func(core.Key, core.Value) bool {
		calls++
		return calls < 7
	})
	if done || calls != 7 {
		t.Fatalf("early stop: Scan returned %v after %d calls, want false after 7", done, calls)
	}
	if !sc.Scan(c, 0, 100, func(core.Key, core.Value) bool { return true }) {
		t.Fatal("complete scan reported early stop")
	}
}

// testScanBounds checks degenerate windows.
func testScanBounds(t *testing.T, f Factory) {
	s := f(scanOptions())
	sc := s.(core.Scanner)
	c := ctx()
	s.Put(c, 10, 100)
	for _, w := range []struct{ lo, hi core.Key }{{5, 5}, {9, 5}, {11, 20}, {0, 10}} {
		if got := collect(c, sc, w.lo, w.hi); len(got) != 0 {
			t.Fatalf("scan [%d, %d) around a lone key at 10 returned %v", w.lo, w.hi, got)
		}
	}
	if got := collect(c, sc, 10, 11); len(got) != 1 || got[0].K != 10 || got[0].V != 100 {
		t.Fatalf("pinpoint scan [10, 11) = %v, want [(10, 100)]", got)
	}
}

// runScanUnderChurn is the concurrent heart of the battery: anchors
// (even keys, never updated after setup) interleave with churn keys (odd
// keys, hammered by updaters) while scanners take random windows. Every
// snapshot must satisfy checkSnapshot; anchors in particular are
// present for every scan's whole window and must never be missed. The
// structure is taken pre-built so the resize leg can race the same body
// against Resize.
func runScanUnderChurn(t *testing.T, s core.Set) {
	sc, ok := s.(core.Scanner)
	if !ok {
		t.Fatalf("settest: %T does not implement core.Scanner", s)
	}
	c0 := ctx()
	anchors := map[core.Key]core.Value{}
	for k := core.Key(0); k < scanKeySpan; k += 2 {
		if !s.Put(c0, k, anchorVal(k)) {
			t.Fatalf("anchor insert %d failed", k)
		}
		anchors[k] = anchorVal(k)
	}
	churnOK := func(k core.Key) bool { return k%2 == 1 }

	// Both sides run fixed iteration budgets rather than gating on each
	// other: the overlap is what matters, and bounded counts keep the
	// battery's wall time predictable on few-core CI hosts even under
	// the race detector.
	const updaters = 4
	const scanners = 2
	iters := scale(3000)
	scans := scale(120)
	var wg sync.WaitGroup
	for w := 0; w < updaters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w)*2654435761 + 13)
			for i := 0; i < iters; i++ {
				k := core.Key(1 + 2*rng.Int63n(scanKeySpan/2)) // odd keys only
				if rng.Bool(0.5) {
					s.Put(c, k, k)
				} else {
					s.Remove(c, k)
				}
			}
		}(w)
	}
	errs := make(chan string, scanners)
	for r := 0; r < scanners; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := core.NewCtx(100 + r)
			rng := xrand.New(uint64(r) + 777)
			for i := 0; i < scans; i++ {
				lo := core.Key(rng.Int63n(scanKeySpan))
				hi := lo + core.Key(1+rng.Int63n(256))
				if hi > scanKeySpan {
					hi = scanKeySpan
				}
				got := collect(c, sc, lo, hi)
				if msg := snapshotViolation(got, lo, hi, anchors, churnOK); msg != "" {
					select {
					case errs <- msg:
					default:
					}
					return
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	// Quiesced: one last full scan must now be exact — anchors plus
	// whatever odd keys survived, matching Get key by key.
	got := collect(c0, sc, 0, scanKeySpan)
	checkSnapshot(t, got, 0, scanKeySpan, anchors, churnOK)
	for _, p := range got {
		if v, in := s.Get(c0, p.K); !in || v != p.V {
			t.Fatalf("quiesced scan returned (%d, %d) but Get says (%d, %v)", p.K, p.V, v, in)
		}
	}
	if want := s.Len(); len(got) != want {
		t.Fatalf("quiesced full scan returned %d keys, Len reports %d", len(got), want)
	}
}

// snapshotViolation is checkSnapshot for goroutines that cannot call
// t.Fatalf: it returns a description of the first violation, or "".
func snapshotViolation(got []core.ScanPair, lo, hi core.Key,
	anchors map[core.Key]core.Value, churnOK func(core.Key) bool) string {
	seen := make(map[core.Key]bool, len(got))
	for i, p := range got {
		switch {
		case p.K < lo || p.K >= hi:
			return fmt.Sprintf("scan [%d, %d) returned out-of-range key %d", lo, hi, p.K)
		case seen[p.K]:
			return fmt.Sprintf("scan [%d, %d) returned key %d twice", lo, hi, p.K)
		case i > 0 && got[i-1].K >= p.K:
			return fmt.Sprintf("scan [%d, %d) out of order: key %d before %d", lo, hi, got[i-1].K, p.K)
		}
		seen[p.K] = true
		if want, isAnchor := anchors[p.K]; isAnchor {
			if p.V != want {
				return fmt.Sprintf("anchor key %d scanned with value %d, want %d", p.K, p.V, want)
			}
		} else if !churnOK(p.K) {
			return fmt.Sprintf("scan [%d, %d) returned phantom key %d", lo, hi, p.K)
		}
	}
	for k := range anchors {
		if k >= lo && k < hi && !seen[k] {
			return fmt.Sprintf("scan [%d, %d) missed anchor key %d: present for the whole scan window", lo, hi, k)
		}
	}
	return ""
}

// testScanContended drives the optimistic protocol into its retry and
// fallback paths: a tiny hot range under maximal update pressure, with
// scanners pinned to exactly that range. Anchor consistency must survive
// even when every optimistic attempt is invalidated.
func runScanContended(t *testing.T, s core.Set) {
	sc, ok := s.(core.Scanner)
	if !ok {
		t.Fatalf("settest: %T does not implement core.Scanner", s)
	}
	c0 := ctx()
	anchors := map[core.Key]core.Value{}
	for k := core.Key(0); k < 32; k += 4 {
		s.Put(c0, k, anchorVal(k))
		anchors[k] = anchorVal(k)
	}
	churnOK := func(k core.Key) bool { return k%4 != 0 }
	iters := scale(4000)
	scans := scale(800) // the 32-key range keeps each scan cheap
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w) + 31)
			for i := 0; i < iters; i++ {
				k := core.Key(rng.Int63n(32))
				if k%4 == 0 {
					continue
				}
				if rng.Bool(0.5) {
					s.Put(c, k, k)
				} else {
					s.Remove(c, k)
				}
			}
		}(w)
	}
	errs := make(chan string, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := core.NewCtx(200 + r)
			for i := 0; i < scans; i++ {
				got := collect(c, sc, 0, 32)
				if msg := snapshotViolation(got, 0, 32, anchors, churnOK); msg != "" {
					select {
					case errs <- msg:
					default:
					}
					return
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}
