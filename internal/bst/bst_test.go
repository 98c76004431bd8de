package bst

import (
	"sync"
	"testing"

	"csds/internal/core"
	"csds/internal/settest"
	"csds/internal/xrand"
)

// trees is the package's conformance roster, by registry short name.
var trees = map[string]settest.Factory{
	"tk":       func(o core.Options) core.Set { return NewTK(o) },
	"internal": func(o core.Options) core.Set { return NewInternal(o) },
}

func TestTK(t *testing.T)       { settest.Run(t, trees["tk"]) }
func TestTKElided(t *testing.T) { settest.RunElided(t, trees["tk"]) }
func TestInternal(t *testing.T) { settest.Run(t, trees["internal"]) }

// TestScanners runs the linearizable range-scan battery on both trees.
func TestScanners(t *testing.T) {
	for name, f := range trees {
		t.Run(name, func(t *testing.T) { settest.RunScanner(t, f) })
	}
}

// TestCursors runs the paginated-iteration battery on both trees.
func TestCursors(t *testing.T) {
	for name, f := range trees {
		t.Run(name, func(t *testing.T) { settest.RunCursor(t, f) })
	}
}

// TestCursorPageCost pins O(page) cursor pages on both trees.
func TestCursorPageCost(t *testing.T) {
	for name, f := range trees {
		t.Run(name, func(t *testing.T) { settest.RunCursorPageCost(t, f) })
	}
}

// TestBatchers runs the batched-operation battery on both trees (sorted
// point application: logarithmic descents with path-prefix locality).
func TestBatchers(t *testing.T) {
	for name, f := range trees {
		t.Run(name, func(t *testing.T) { settest.RunBatcher(t, f) })
	}
}

func TestFeaturedIsTK(t *testing.T) {
	info, ok := core.Featured("bst")
	if !ok || info.Name != "bst/tk" {
		t.Fatalf("featured bst = %+v", info)
	}
	if _, ok := core.Lookup("bst/internal"); !ok {
		t.Fatal("bst/internal not registered")
	}
}

// checkExternalInvariants verifies the BST-TK structural invariants
// (quiesced): every internal node has two children; leaves under an
// internal node respect the routing key; every datum is at a leaf.
func checkExternalInvariants(t *testing.T, n *tkNode, lo, hi core.Key) int {
	t.Helper()
	if n.leaf {
		if n.key != core.KeyMin && n.key != core.KeyMax {
			if n.key < lo || n.key >= hi {
				t.Fatalf("leaf %d outside routing range [%d, %d)", n.key, lo, hi)
			}
			return 1
		}
		return 0
	}
	l, r := n.left.Load(), n.right.Load()
	if l == nil || r == nil {
		t.Fatal("internal node with missing child")
	}
	return checkExternalInvariants(t, l, lo, n.key) + checkExternalInvariants(t, r, n.key, hi)
}

func TestTKStructureUnderChurn(t *testing.T) {
	tree := NewTK(core.Options{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w) + 11)
			for i := 0; i < 5000; i++ {
				k := core.Key(1 + rng.Int63n(64))
				if rng.Bool(0.5) {
					tree.Put(c, k, k)
				} else {
					tree.Remove(c, k)
				}
			}
		}(w)
	}
	wg.Wait()
	n := checkExternalInvariants(t, tree.sroot.left.Load(), core.KeyMin, core.KeyMax)
	if n != tree.Len() {
		t.Fatalf("invariant walk found %d leaves, Len() = %d", n, tree.Len())
	}
}

func TestTKEmptyToOneToEmpty(t *testing.T) {
	// Exercises the root-adjacent splice paths explicitly.
	tree := NewTK(core.Options{})
	c := core.NewCtx(0)
	for round := 0; round < 10; round++ {
		if !tree.Put(c, 42, 1) {
			t.Fatal("insert into empty failed")
		}
		if tree.Len() != 1 {
			t.Fatalf("Len = %d", tree.Len())
		}
		if !tree.Remove(c, 42) {
			t.Fatal("remove of only key failed")
		}
		if tree.Len() != 0 {
			t.Fatalf("Len = %d after removal", tree.Len())
		}
	}
}

func TestTKNeverWaits(t *testing.T) {
	// §5.1: BST-TK uses trylocks, so the waiting time is zero by
	// construction; contention surfaces as restarts instead.
	tree := NewTK(core.Options{})
	var wg sync.WaitGroup
	ctxs := make([]*core.Ctx, 8)
	for w := range ctxs {
		ctxs[w] = core.NewCtx(w)
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := ctxs[w]
			rng := xrand.New(uint64(w) + 3)
			for i := 0; i < 5000; i++ {
				k := core.Key(1 + rng.Int63n(16))
				if rng.Bool(0.5) {
					tree.Put(c, k, k)
				} else {
					tree.Remove(c, k)
				}
			}
		}(w)
	}
	wg.Wait()
	for w, c := range ctxs {
		if c.Stats.LockWaits != 0 {
			t.Fatalf("worker %d waited %d times; trylock design must never wait", w, c.Stats.LockWaits)
		}
	}
}

func TestInternalReviveKeepsValue(t *testing.T) {
	tree := NewInternal(core.Options{})
	c := core.NewCtx(0)
	tree.Put(c, 7, 70)
	tree.Remove(c, 7)
	if _, ok := tree.Get(c, 7); ok {
		t.Fatal("tombstoned key still visible")
	}
	if !tree.Put(c, 7, 71) {
		t.Fatal("revive failed")
	}
	if v, ok := tree.Get(c, 7); !ok || v != 71 {
		t.Fatalf("revived value = (%d, %v), want (71, true)", v, ok)
	}
}
