package core

import (
	"sync/atomic"
	"testing"
	"unsafe"
)

// towerNode has a skip-list node's shape: key, value, tower, two flags.
type towerNode struct {
	key  Key
	val  Value
	next []atomic.Pointer[towerNode]
	a, b atomic.Uint32
}

var towerSink *towerNode

// TestTowerLayout pins NewTower's contract for every height: one
// allocation, a tower of exactly height nil links, capacity the class
// that fits, and the tower laid out right after the node in the same
// object.
func TestTowerLayout(t *testing.T) {
	for h := 1; h <= 32; h++ {
		if a := testing.AllocsPerRun(20, func() { towerSink, _ = NewTower[towerNode](h) }); a != 1 {
			t.Errorf("height %d: %v allocations, want 1", h, a)
		}
		n, next := NewTower[towerNode](h)
		if len(next) != h {
			t.Fatalf("height %d: tower length %d", h, len(next))
		}
		want := 32
		for _, c := range []int{1, 2, 4, 8} {
			if h <= c {
				want = c
				break
			}
		}
		if cap(next) != want {
			t.Errorf("height %d: tower capacity %d, want %d", h, cap(next), want)
		}
		for i := range next {
			if next[i].Load() != nil {
				t.Fatalf("height %d: link %d not nil", h, i)
			}
		}
		if off := uintptr(unsafe.Pointer(&next[0])) - uintptr(unsafe.Pointer(n)); off != unsafe.Sizeof(towerNode{}) {
			t.Errorf("height %d: tower at offset %d from the node, want %d", h, off, unsafe.Sizeof(towerNode{}))
		}
	}
}
