package skiplist

import (
	"sync/atomic"
	"testing"
	"unsafe"
)

var (
	hSink *hNode
	pSink *pNode
)

// checkTower asserts every link of a node's tower is nil and the tower
// sits right after the node, in the same object.
func checkTower[N any](t *testing.T, n *N, next []atomic.Pointer[N]) {
	t.Helper()
	for i := range next {
		if next[i].Load() != nil {
			t.Fatalf("height %d: link %d not nil", len(next), i)
		}
	}
	if uintptr(unsafe.Pointer(&next[0]))-uintptr(unsafe.Pointer(n)) != unsafe.Sizeof(*n) {
		t.Fatalf("height %d: tower not inside the node's object", len(next))
	}
}

// TestTowerLayout pins the lock-based skip lists' node layout: a node is
// one allocation at every height, its tower of height nil links sits
// right after it, and a height-1 node with its link fits the 64-byte
// size class (a field added later must not push the common node out).
func TestTowerLayout(t *testing.T) {
	if s := unsafe.Sizeof(hNode{}) + 8; s > 64 {
		t.Errorf("height-1 hNode is %d bytes, want at most 64", s)
	}
	if s := unsafe.Sizeof(pNode{}) + 8; s > 64 {
		t.Errorf("height-1 pNode is %d bytes, want at most 64", s)
	}
	for h := 1; h <= maxMaxLevel; h++ {
		if a := testing.AllocsPerRun(20, func() { hSink = newHNode(1, 2, h) }); a != 1 {
			t.Errorf("hNode height %d: %v allocations, want 1", h, a)
		}
		if a := testing.AllocsPerRun(20, func() { pSink = newPNode(1, 2, h) }); a != 1 {
			t.Errorf("pNode height %d: %v allocations, want 1", h, a)
		}
		hn, pn := newHNode(1, 2, h), newPNode(1, 2, h)
		if hn.topLevel() != h-1 || pn.topLevel() != h-1 {
			t.Fatalf("height %d: topLevel %d / %d", h, hn.topLevel(), pn.topLevel())
		}
		checkTower(t, hn, hn.next)
		checkTower(t, pn, pn.next)
	}
}
