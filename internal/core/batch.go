// Batched-operation layer of the set abstraction: the Batcher optional
// interface, its one-pass-over-many-instances extension PartBatcher, and
// the shared helpers behind every structure's amortized multi-key paths.
//
// The paper's thesis is that throughput is governed by how much
// synchronization each operation pays on the hot path; a caller that
// logically operates on many keys at once should not pay a full guard
// bracket, shard-map load and lock epoch *per key*. Batcher is the
// synchronization-amortization counterpart of the Cursor extension:
// where cursors amortize scan collection over pages, batches amortize
// write/read synchronization over key groups. What each implementation
// amortizes differs. Lists sort the batch and traverse once, resuming
// each search from the previous key's position. Other ordered leaves
// apply sorted point operations (SortedMulti*), and hash tables loop
// (LoopMulti*). Composites group a batch by destination and cross each
// shard or stripe boundary once. A leaf that implements PartBatcher
// takes a partitioned batch whole: the Herlihy skip list overlaps the
// searches of up to 64 elements across all their shards.
package core

import (
	"sort"
	"sync"
)

// KV is one key/value pair of a batched Put.
type KV struct {
	K Key
	V Value
}

// Batcher is the optional batched-operation extension of Set,
// implemented by every structure and combinator in this module.
//
// Each method applies one operation per element of the batch and
// reports every element's outcome through the per-key callback f, which
// is invoked exactly once per index, in caller (ascending index) order,
// with the same result the corresponding point operation would have
// returned. A zero-length batch is a no-op (f is never called). f must
// not call back into the same structure (batched paths may hold
// internal brackets across the replay).
//
// Consistency — per-batch, not cross-batch, linearizability: every
// element's operation linearizes individually at some instant inside
// the Multi* call, exactly as the equivalent point operation would
// inside its own call window. The batch as a whole is NOT an atomic
// multi-key transaction: two elements of one batch may be separated by
// concurrent operations of other threads. Duplicate keys inside one
// batch behave as if their operations executed in ascending index
// order (the first Put of a duplicate key inserts, the second finds it
// present), so on a quiescent structure a batch is indistinguishable
// from the equivalent loop of point operations.
type Batcher interface {
	// MultiGet looks up every key of keys; f receives (index, value,
	// present) per element.
	MultiGet(c *Ctx, keys []Key, f func(i int, v Value, ok bool))
	// MultiPut inserts every absent pair of pairs; f receives (index,
	// inserted) per element. Like Put, an existing entry is never
	// overwritten.
	MultiPut(c *Ctx, pairs []KV, f func(i int, inserted bool))
	// MultiRemove deletes every present key of keys; f receives
	// (index, removed) per element.
	MultiRemove(c *Ctx, keys []Key, f func(i int, removed bool))
}

// PartBatcher is the optional extension of a leaf structure that serves
// one batch spread over many instances of its own type: element i lives
// in parts[i], and every parts[i] has the receiver's concrete type (the
// receiver is only the entry point). A partitioning composite routes
// each key and makes one call, instead of one sub-batch per part, so the
// leaf can work on elements of different parts at once. f keeps
// Batcher's contract: once per index, in ascending index order, with the
// result the point operation on parts[i] would have returned.
//
// Consistency is Batcher's, per element. Every element's search runs
// inside the call. An outcome that changes nothing (a get; a put that
// finds the key present; a remove that finds it absent) linearizes at
// its search's reads. An outcome that updates linearizes where the point
// update does. Duplicate keys apply in ascending index order, so on a
// quiescent structure the call equals the looped point operations.
type PartBatcher interface {
	MultiGetIn(c *Ctx, parts []Set, keys []Key, f func(i int, v Value, ok bool))
	MultiPutIn(c *Ctx, parts []Set, pairs []KV, f func(i int, inserted bool))
	MultiRemoveIn(c *Ctx, parts []Set, keys []Key, f func(i int, removed bool))
}

// BatchScratch recycles the transient buffers of one batched call:
// the order/grouping index arrays, the result-replay buffers, the
// per-destination sub-batches, and the routed parts slice of a
// PartBatcher call. All of them die when the Multi* call
// returns, which under a batch-heavy workload left the allocator as
// the dominant per-batch cost; carving them from a pooled arena makes
// the steady-state batch path allocation-free. Take one scratch per
// call and Release it on return — calls nest safely (a composite's
// inner structure takes its own scratch from the pool).
//
// Every carve is zeroed, so a carved slice behaves exactly like a
// fresh make. Release invalidates every slice carved from the scratch;
// none of them may escape the call (the Batcher callback contract
// already forbids retaining batch internals).
type BatchScratch struct {
	ints  []int
	keys  []Key
	kvs   []KV
	vals  []Value
	bools []bool
	sets  []Set
}

var batchScratchPool = sync.Pool{New: func() any { return new(BatchScratch) }}

// GetBatchScratch takes a scratch arena from the pool.
func GetBatchScratch() *BatchScratch { return batchScratchPool.Get().(*BatchScratch) }

// Release returns the scratch to the pool, invalidating every slice
// carved from it. Carved Sets are cleared so a pooled scratch keeps no
// structure alive.
func (s *BatchScratch) Release() {
	s.ints = s.ints[:0]
	s.keys = s.keys[:0]
	s.kvs = s.kvs[:0]
	s.vals = s.vals[:0]
	s.bools = s.bools[:0]
	clear(s.sets)
	s.sets = s.sets[:0]
	batchScratchPool.Put(s)
}

// carve extends arena a by a zeroed length-n slice and returns it
// full-capacity-clipped, so successive carves are disjoint. When the
// arena must grow, a fresh backing array is taken and earlier carves
// simply keep the old one alive until Release.
func carve[T any](a []T, n int) ([]T, []T) {
	if cap(a)-len(a) < n {
		a = make([]T, 0, 2*(len(a)+n))
	}
	used := len(a)
	a = a[:used+n]
	out := a[used : used+n : used+n]
	clear(out)
	return a, out
}

// Ints carves a zeroed length-n int slice from the scratch.
func (s *BatchScratch) Ints(n int) (out []int) { s.ints, out = carve(s.ints, n); return }

// Keys carves a zeroed length-n Key slice from the scratch.
func (s *BatchScratch) Keys(n int) (out []Key) { s.keys, out = carve(s.keys, n); return }

// KVs carves a zeroed length-n KV slice from the scratch.
func (s *BatchScratch) KVs(n int) (out []KV) { s.kvs, out = carve(s.kvs, n); return }

// Vals carves a zeroed length-n Value slice from the scratch.
func (s *BatchScratch) Vals(n int) (out []Value) { s.vals, out = carve(s.vals, n); return }

// Bools carves a zeroed length-n bool slice from the scratch.
func (s *BatchScratch) Bools(n int) (out []bool) { s.bools, out = carve(s.bools, n); return }

// Sets carves a zeroed length-n Set slice from the scratch.
func (s *BatchScratch) Sets(n int) (out []Set) { s.sets, out = carve(s.sets, n); return }

// OrderInto fills ord with the indices 0..len(ord)-1 ordered by
// ascending key, stably: duplicate keys keep their caller order, which
// is what makes a sorted application sequentially equivalent to the
// index-order loop of point operations (Batcher's duplicate-key
// contract). Small batches — the common case — use an in-place stable
// insertion sort so ordering allocates nothing; larger ones fall back
// to sort.SliceStable, whose O(n log n) beats the quadratic insertion
// cost long before its two closure allocations matter.
func OrderInto(ord []int, key func(int) Key) {
	for i := range ord {
		ord[i] = i
	}
	if len(ord) <= 128 {
		for i := 1; i < len(ord); i++ {
			v, kv := ord[i], key(ord[i])
			j := i
			for j > 0 && key(ord[j-1]) > kv {
				ord[j] = ord[j-1]
				j--
			}
			ord[j] = v
		}
		return
	}
	sort.SliceStable(ord, func(a, b int) bool { return key(ord[a]) < key(ord[b]) })
}

// LoopMultiGet implements MultiGet as a loop of point Gets — the
// fallback for structures whose point read is already O(1)-ish (hash
// tables) and for foreign Sets wrapped by AsBatcher.
func LoopMultiGet(c *Ctx, s Set, keys []Key, f func(i int, v Value, ok bool)) {
	for i, k := range keys {
		v, ok := s.Get(c, k)
		f(i, v, ok)
	}
}

// LoopMultiPut implements MultiPut as a loop of point Puts.
func LoopMultiPut(c *Ctx, s Set, pairs []KV, f func(i int, inserted bool)) {
	for i, p := range pairs {
		f(i, s.Put(c, p.K, p.V))
	}
}

// LoopMultiRemove implements MultiRemove as a loop of point Removes.
func LoopMultiRemove(c *Ctx, s Set, keys []Key, f func(i int, removed bool)) {
	for i, k := range keys {
		f(i, s.Remove(c, k))
	}
}

// SortedMultiGet applies point Gets in ascending key order and replays
// the results in caller order — the locality-amortized path for ordered
// structures whose point search is already logarithmic (skip lists,
// BSTs): consecutive sorted keys descend through largely the same upper
// levels, so the sort buys branch and cache locality even without a
// bespoke resumed traversal.
func SortedMultiGet(c *Ctx, s Set, keys []Key, f func(i int, v Value, ok bool)) {
	sc := GetBatchScratch()
	defer sc.Release()
	ord := sc.Ints(len(keys))
	OrderInto(ord, func(i int) Key { return keys[i] })
	vals := sc.Vals(len(keys))
	oks := sc.Bools(len(keys))
	for _, i := range ord {
		vals[i], oks[i] = s.Get(c, keys[i])
	}
	for i := range keys {
		f(i, vals[i], oks[i])
	}
}

// SortedMultiPut applies point Puts in ascending key order (stable, so
// duplicate keys resolve in caller order) and replays results in caller
// order.
func SortedMultiPut(c *Ctx, s Set, pairs []KV, f func(i int, inserted bool)) {
	sc := GetBatchScratch()
	defer sc.Release()
	ord := sc.Ints(len(pairs))
	OrderInto(ord, func(i int) Key { return pairs[i].K })
	res := sc.Bools(len(pairs))
	for _, i := range ord {
		res[i] = s.Put(c, pairs[i].K, pairs[i].V)
	}
	for i := range res {
		f(i, res[i])
	}
}

// SortedMultiRemove applies point Removes in ascending key order and
// replays results in caller order.
func SortedMultiRemove(c *Ctx, s Set, keys []Key, f func(i int, removed bool)) {
	sc := GetBatchScratch()
	defer sc.Release()
	ord := sc.Ints(len(keys))
	OrderInto(ord, func(i int) Key { return keys[i] })
	res := sc.Bools(len(keys))
	for _, i := range ord {
		res[i] = s.Remove(c, keys[i])
	}
	for i := range res {
		f(i, res[i])
	}
}

// loopBatcher adapts a plain Set to Batcher through point-op loops.
type loopBatcher struct{ s Set }

func (b loopBatcher) MultiGet(c *Ctx, keys []Key, f func(i int, v Value, ok bool)) {
	LoopMultiGet(c, b.s, keys, f)
}
func (b loopBatcher) MultiPut(c *Ctx, pairs []KV, f func(i int, inserted bool)) {
	LoopMultiPut(c, b.s, pairs, f)
}
func (b loopBatcher) MultiRemove(c *Ctx, keys []Key, f func(i int, removed bool)) {
	LoopMultiRemove(c, b.s, keys, f)
}

// AsBatcher returns s's batched paths, wrapping plain Sets in the
// generic loop adapter — combinators delegate sub-batches through this,
// so a composite over a foreign Set still satisfies the Batcher
// contract (without the amortization).
func AsBatcher(s Set) Batcher {
	if b, ok := s.(Batcher); ok {
		return b
	}
	return loopBatcher{s}
}

// RecordBatch forwards a completed batch's size and wall time,
// tolerating nil (batches keep their own counters, like scans and
// pages, so the paper's point-op metrics stay unpolluted).
func (c *Ctx) RecordBatch(keys int, ns uint64) {
	if c != nil && c.Stats != nil {
		c.Stats.RecordBatch(keys, ns)
	}
}

// RecordCombined notes that this worker's batch was applied through a
// flat-combining publication list, tolerating nil.
func (c *Ctx) RecordCombined() {
	if c != nil && c.Stats != nil {
		c.Stats.RecordCombined()
	}
}
