package hashtable

import (
	"testing"
	"unsafe"
)

var ixSink *ixNode

// TestTowerLayout pins the ordered index's node layout: a node is one
// allocation at every height, its tower of height nil links sits right
// after it, and nodes of height 1 and 2 with their links fit the 64-byte
// size class (a field added later must not push them out).
func TestTowerLayout(t *testing.T) {
	size := unsafe.Sizeof(ixNode{})
	if size+16 > 64 {
		t.Errorf("height-2 ixNode is %d bytes, want at most 64", size+16)
	}
	for h := 1; h <= ixMaxMaxLevel; h++ {
		if a := testing.AllocsPerRun(20, func() { ixSink = newIxNode(1, 2, h) }); a != 1 {
			t.Errorf("height %d: %v allocations, want 1", h, a)
		}
		n := newIxNode(1, 2, h)
		if len(n.next) != h || n.topLevel() != h-1 {
			t.Fatalf("height %d: tower length %d, topLevel %d", h, len(n.next), n.topLevel())
		}
		for i := range n.next {
			if n.next[i].Load() != nil {
				t.Fatalf("height %d: link %d not nil", h, i)
			}
		}
		if off := uintptr(unsafe.Pointer(&n.next[0])) - uintptr(unsafe.Pointer(n)); off != size {
			t.Errorf("height %d: tower at offset %d from the node, want %d", h, off, size)
		}
	}
}
