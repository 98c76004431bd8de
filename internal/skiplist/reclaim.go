// ReclaimAll (core.Reclaimer) for the pooled skip lists: quiesced
// teardown sweeps over the bottom level that recycle every node at
// once (same contract as the list package: the caller guarantees the
// instance is quiesced and discarded — the elastic resize's retire
// callback). The lock-free skip list has no pool (pool.go) and so no
// ReclaimAll.
package skiplist

import "csds/internal/core"

// ReclaimAll implements core.Reclaimer: recycle every data node.
func (s *Herlihy) ReclaimAll() {
	curr := s.head.next[0].Load()
	for curr != s.tail {
		next := curr.next[0].Load()
		reclaimHNode(curr)
		curr = next
	}
	for i := range s.head.next {
		s.head.next[i].Store(s.tail)
	}
}

// ReclaimAll implements core.Reclaimer: recycle every data node (the
// KeyMax tail sentinel stays).
func (s *Pugh) ReclaimAll() {
	curr := s.head.next[0].Load()
	for curr.key != core.KeyMax {
		next := curr.next[0].Load()
		reclaimPNode(curr)
		curr = next
	}
	for i := range s.head.next {
		s.head.next[i].Store(curr)
	}
}
