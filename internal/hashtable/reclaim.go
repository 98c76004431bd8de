// ReclaimAll (core.Reclaimer) for the monolithic hash tables: quiesced
// teardown sweeps that hand every bucket-chain node back to the package
// pool at once (same contract as the list package: the caller
// guarantees the instance is quiesced and discarded — the elastic
// resize's retire callback). The ordered key index is left for the GC —
// ixNodes are not pooled (pool.go) — and the COW table has nothing to
// pool at all.
package hashtable

import "csds/internal/core"

// ReclaimAll implements core.Reclaimer: recycle every bucket chain.
func (h *Lazy) ReclaimAll() {
	reclaimBuckets(h.buckets)
}

// ReclaimAll implements core.Reclaimer: recycle every bucket chain.
func (h *Striped) ReclaimAll() {
	reclaimBuckets(h.buckets)
}

func reclaimBuckets(buckets []lbucket) {
	for i := range buckets {
		curr := buckets[i].head.Load()
		buckets[i].head.Store(nil)
		for curr != nil {
			next := curr.next.Load()
			reclaimLNode(curr)
			curr = next
		}
	}
}

// ReclaimAll implements core.Reclaimer by delegation: each inner bucket
// list recycles its own nodes if it knows how.
func (b *Bucketed) ReclaimAll() {
	for _, s := range b.buckets {
		if r, ok := s.(core.Reclaimer); ok {
			r.ReclaimAll()
		}
	}
}
