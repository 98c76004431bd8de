// Batched (core.Batcher) paths for the combinators. The composite
// batching contract is destination grouping: a batch is bucket-sorted
// by part once (through the partition's router), and each destination
// boundary is crossed once per batch — one routing pass, one lock
// epoch per part — instead of once per key. Results are buffered and
// replayed in caller order. The exception is a Partition over a
// core.PartBatcher leaf: there every key is routed to its part and the
// whole batch goes down in one call, which the leaf serves across all
// parts at once and answers in caller order itself. Elastic runs every
// batch through its current epoch's Partition.
package combinator

import (
	"slices"
	"sync"

	"csds/internal/core"
	"csds/internal/htm"
	"csds/internal/locks"
)

// groupBatch bucket-sorts the batch indices 0..n-1 by destination
// part, preserving caller order inside each part (so inner duplicate-
// key semantics match the caller's index order; distinct parts hold
// disjoint keys, so cross-part order is immaterial). idx[off[p]:
// off[p+1]] lists the caller indices routed to part p. The index
// arrays are carved from the caller's scratch, so they live until the
// caller releases it.
func groupBatch(sc *core.BatchScratch, n, parts int, partOf func(i int) int) (idx, off []int) {
	off = sc.Ints(parts + 1)
	for i := 0; i < n; i++ {
		off[partOf(i)+1]++
	}
	for p := 0; p < parts; p++ {
		off[p+1] += off[p]
	}
	idx = sc.Ints(n)
	cur := sc.Ints(parts)
	copy(cur, off[:parts])
	for i := 0; i < n; i++ {
		p := partOf(i)
		idx[cur[p]] = i
		cur[p]++
	}
	return idx, off
}

// singlePart reports whether exactly one part received the whole
// batch, and which.
func singlePart(off []int) (int, bool) {
	n := off[len(off)-1]
	if n == 0 {
		return 0, false
	}
	for p := 0; p+1 < len(off); p++ {
		if off[p+1]-off[p] == n {
			return p, true
		}
	}
	return 0, false
}

// sink gathers inner batch results into caller-order slots: inner
// element j is caller element idx[j], or j itself when idx is nil. Its
// callbacks are bound once, when the pooled sink is made. A closure
// built per call would escape through the inner Batcher and cost an
// allocation per batch, the reason core's page frames bind theirs once.
type sink struct {
	idx  []int
	vals []core.Value
	oks  []bool
	get  func(j int, v core.Value, ok bool)
	put  func(j int, ok bool)
}

var sinkPool = sync.Pool{New: func() any {
	sk := new(sink)
	sk.get = func(j int, v core.Value, ok bool) {
		if sk.idx != nil {
			j = sk.idx[j]
		}
		sk.vals[j], sk.oks[j] = v, ok
	}
	sk.put = func(j int, ok bool) {
		if sk.idx != nil {
			j = sk.idx[j]
		}
		sk.oks[j] = ok
	}
	return sk
}}

// getSink takes a pooled sink whose n result slots are carved from sc.
func getSink(sc *core.BatchScratch, n int) *sink {
	sk := sinkPool.Get().(*sink)
	sk.vals, sk.oks = sc.Vals(n), sc.Bools(n)
	return sk
}

// release drops the sink's views of the caller's buffers and pools it.
func (sk *sink) release() {
	sk.idx, sk.vals, sk.oks = nil, nil, nil
	sinkPool.Put(sk)
}

// perPartGet serves a grouped MultiGet with one inner MultiGet per part
// that received keys, results into sk.
func perPartGet(c *core.Ctx, sc *core.BatchScratch, sk *sink, parts []core.Set, idx, off []int, keys []core.Key) {
	sub := sc.Keys(len(keys))
	for p, set := range parts {
		if off[p] == off[p+1] {
			continue
		}
		sk.idx = idx[off[p]:off[p+1]]
		for j, i := range sk.idx {
			sub[j] = keys[i]
		}
		core.AsBatcher(set).MultiGet(c, sub[:len(sk.idx)], sk.get)
	}
}

// perPartPut is perPartGet for MultiPut.
func perPartPut(c *core.Ctx, sc *core.BatchScratch, sk *sink, parts []core.Set, idx, off []int, pairs []core.KV) {
	sub := sc.KVs(len(pairs))
	for p, set := range parts {
		if off[p] == off[p+1] {
			continue
		}
		sk.idx = idx[off[p]:off[p+1]]
		for j, i := range sk.idx {
			sub[j] = pairs[i]
		}
		core.AsBatcher(set).MultiPut(c, sub[:len(sk.idx)], sk.put)
	}
}

// perPartRemove is perPartGet for MultiRemove.
func perPartRemove(c *core.Ctx, sc *core.BatchScratch, sk *sink, parts []core.Set, idx, off []int, keys []core.Key) {
	sub := sc.Keys(len(keys))
	for p, set := range parts {
		if off[p] == off[p+1] {
			continue
		}
		sk.idx = idx[off[p]:off[p+1]]
		for j, i := range sk.idx {
			sub[j] = keys[i]
		}
		core.AsBatcher(set).MultiRemove(c, sub[:len(sk.idx)], sk.put)
	}
}

// replayGets delivers gathered MultiGet results in caller order.
func replayGets(vals []core.Value, oks []bool, f func(i int, v core.Value, ok bool)) {
	for i, ok := range oks {
		f(i, vals[i], ok)
	}
}

// replayBools delivers gathered write outcomes in caller order.
func replayBools(res []bool, f func(i int, ok bool)) {
	for i, ok := range res {
		f(i, ok)
	}
}

// ---------------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------------

// routedBatch is a batch routed over a Partition's parts. When the parts
// implement core.PartBatcher, pb is set and parts[i] is element i's
// part; otherwise idx and off group the batch by part (groupBatch). one
// is the part that received every element, or -1.
type routedBatch struct {
	pb       core.PartBatcher
	parts    []core.Set
	idx, off []int
	one      int
}

// routeBatch routes an n-element batch, element i keyed by key(i).
func (p *Partition) routeBatch(sc *core.BatchScratch, n int, key func(i int) core.Key) routedBatch {
	if pb, ok := p.parts[0].(core.PartBatcher); ok {
		b := routedBatch{pb: pb, parts: sc.Sets(n), one: p.r.index(key(0))}
		for i := range b.parts {
			j := p.r.index(key(i))
			if j != b.one {
				b.one = -1
			}
			b.parts[i] = p.parts[j]
		}
		return b
	}
	b := routedBatch{one: -1}
	b.idx, b.off = groupBatch(sc, n, len(p.parts), func(i int) int { return p.r.index(key(i)) })
	if j, ok := singlePart(b.off); ok {
		b.one = j
	}
	return b
}

// MultiGet implements core.Batcher. Over PartBatcher parts the routed
// batch is one MultiGetIn call, delivered straight to f. Over other
// parts a batch whose keys all live in one part is that part's
// MultiGet, and any other is grouped, one inner MultiGet per part
// touched, and replayed in caller order.
func (p *Partition) MultiGet(c *core.Ctx, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	n := len(keys)
	if n == 0 {
		return
	}
	sc := core.GetBatchScratch()
	defer sc.Release()
	b := p.routeBatch(sc, n, func(i int) core.Key { return keys[i] })
	switch {
	case b.pb != nil:
		b.pb.MultiGetIn(c, b.parts, keys, f)
	case b.one >= 0:
		core.AsBatcher(p.parts[b.one]).MultiGet(c, keys, f)
	default:
		sk := getSink(sc, n)
		defer sk.release()
		perPartGet(c, sc, sk, p.parts, b.idx, b.off, keys)
		replayGets(sk.vals, sk.oks, f)
	}
}

// MultiPut implements core.Batcher. A write batch whose keys all land in
// ONE part is the contended hot-spot case and goes through the part's
// flat-combining point, so colliding batches from many threads are
// applied by one winner in one inner bracket (see core.Combiner). A
// batch that spans parts is routed like MultiGet: one MultiPutIn call
// over PartBatcher parts, per-part sub-batches otherwise.
func (p *Partition) MultiPut(c *core.Ctx, pairs []core.KV, f func(i int, inserted bool)) {
	n := len(pairs)
	if n == 0 {
		return
	}
	sc := core.GetBatchScratch()
	defer sc.Release()
	b := p.routeBatch(sc, n, func(i int) core.Key { return pairs[i].K })
	switch {
	case b.one >= 0:
		// res may travel through the publication list, but the combiner
		// hands it back exclusively once done is set, so Run's return
		// makes the scratch-carved slice safe to recycle.
		res := sc.Bools(n)
		p.combiners[b.one].Run(c, core.BatchPut, pairs, res, p.applyCombined(b.one))
		replayBools(res, f)
	case b.pb != nil:
		b.pb.MultiPutIn(c, b.parts, pairs, f)
	default:
		sk := getSink(sc, n)
		defer sk.release()
		perPartPut(c, sc, sk, p.parts, b.idx, b.off, pairs)
		replayBools(sk.oks, f)
	}
}

// MultiRemove implements core.Batcher with MultiPut's routing and
// single-part flat-combining path.
func (p *Partition) MultiRemove(c *core.Ctx, keys []core.Key, f func(i int, removed bool)) {
	n := len(keys)
	if n == 0 {
		return
	}
	sc := core.GetBatchScratch()
	defer sc.Release()
	b := p.routeBatch(sc, n, func(i int) core.Key { return keys[i] })
	switch {
	case b.one >= 0:
		kv := sc.KVs(n)
		for i, k := range keys {
			kv[i] = core.KV{K: k}
		}
		res := sc.Bools(n)
		p.combiners[b.one].Run(c, core.BatchRemove, kv, res, p.applyCombined(b.one))
		replayBools(res, f)
	case b.pb != nil:
		b.pb.MultiRemoveIn(c, b.parts, keys, f)
	default:
		sk := getSink(sc, n)
		defer sk.release()
		perPartRemove(c, sc, sk, p.parts, b.idx, b.off, keys)
		replayBools(sk.oks, f)
	}
}

// applyCombined adapts part j's inner Batcher to the combiner's apply
// signature (possibly receiving the concatenation of several colliding
// threads' batches).
func (p *Partition) applyCombined(j int) core.CombineApply {
	return func(c *core.Ctx, op core.BatchOp, pairs []core.KV, res []bool) {
		sc := core.GetBatchScratch()
		defer sc.Release()
		sk := sinkPool.Get().(*sink)
		defer sk.release()
		sk.oks = res
		b := core.AsBatcher(p.parts[j])
		if op == core.BatchPut {
			b.MultiPut(c, pairs, sk.put)
			return
		}
		keys := sc.Keys(len(pairs))
		for i, kv := range pairs {
			keys[i] = kv.K
		}
		b.MultiRemove(c, keys, sk.put)
	}
}

// ---------------------------------------------------------------------------
// Elastic
// ---------------------------------------------------------------------------

// MultiGet implements core.Batcher with the same old-then-new epoch
// discipline as Get, at batch granularity: the loaded map's Partition
// serves the whole batch into a caller-order sink, and the result stands
// only if that map is still current afterwards. Every part was then read
// either unfrozen (current at that instant) or frozen under a current
// map (immutable and authoritative, its writers parked). A superseded
// map retries the batch; after scanEpochRetries of them the batch pins
// the map by briefly excluding resizes (resizeMu pauses migrations,
// never operations), mirroring Scan's fallback.
func (e *Elastic) MultiGet(c *core.Ctx, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	n := len(keys)
	if n == 0 {
		return
	}
	// Pin the loaded shard maps against eager resize reclamation (one
	// bracket for the whole batch; brackets nest).
	c.EpochEnter()
	defer c.EpochExit()
	sc := core.GetBatchScratch()
	defer sc.Release()
	sk := getSink(sc, n)
	defer sk.release()
	for attempt := 0; attempt < scanEpochRetries; attempt++ {
		p := e.cur.Load()
		p.MultiGet(c, keys, sk.get)
		if e.cur.Load() == p {
			replayGets(sk.vals, sk.oks, f)
			return
		}
	}
	e.resizeMu.Lock()
	e.cur.Load().MultiGet(c, keys, sk.get)
	e.resizeMu.Unlock()
	replayGets(sk.vals, sk.oks, f)
}

// writeBatch runs one write batch on exactly one shard map. It routes
// the batch once, entering the gate of every part the batch touches and
// checking each part's frozen flag after entering its gate. If none is
// frozen, no migrator can drain any of those parts before apply returns,
// so the whole batch runs on the loaded map's Partition (flat combining
// and PartBatcher paths included). If one is frozen, nothing has been
// applied yet: the batch leaves every gate, parks until the epoch
// advances (instrumented, like write) and retries whole on the published
// map. The price is that a resize's drain of a part waits for a whole
// batch touching it, not one sub-batch.
func (e *Elastic) writeBatch(c *core.Ctx, n int, key func(i int) core.Key, apply func(p *Partition)) {
	if n == 0 {
		return
	}
	c.EpochEnter()
	defer c.EpochExit()
	sc := core.GetBatchScratch()
	defer sc.Release()
	for {
		p := e.cur.Load()
		touched := sc.Bools(len(p.parts))
		frozen := false
		for i := 0; i < n && !frozen; i++ {
			if j := p.r.index(key(i)); !touched[j] {
				touched[j] = true
				p.gates[j].writers.Add(1)
				frozen = p.gates[j].frozen.Load()
			}
		}
		if !frozen {
			apply(p.Partition)
		}
		for j, t := range touched {
			if t {
				p.gates[j].writers.Add(-1)
			}
		}
		if !frozen {
			return
		}
		locks.WaitWhile(c.Stat(), func() bool { return e.cur.Load() == p })
	}
}

// MultiPut implements core.Batcher under the gate protocol (see
// writeBatch).
func (e *Elastic) MultiPut(c *core.Ctx, pairs []core.KV, f func(i int, inserted bool)) {
	e.writeBatch(c, len(pairs), func(i int) core.Key { return pairs[i].K },
		func(p *Partition) { p.MultiPut(c, pairs, f) })
}

// MultiRemove implements core.Batcher under the gate protocol (see
// writeBatch).
func (e *Elastic) MultiRemove(c *core.Ctx, keys []core.Key, f func(i int, removed bool)) {
	e.writeBatch(c, len(keys), func(i int) core.Key { return keys[i] },
		func(p *Partition) { p.MultiRemove(c, keys, f) })
}

// ---------------------------------------------------------------------------
// ReadCache
// ---------------------------------------------------------------------------

// MultiGet implements core.Batcher: one probe pass over the cache
// (each probe the same single atomic load as a point hit), then the
// miss set forwarded as ONE inner sub-batch, then version-guarded
// fills — per-key the exact protocol of Get, with the inner traversal
// amortized across the misses.
func (r *ReadCache) MultiGet(c *core.Ctx, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	n := len(keys)
	if n == 0 {
		return
	}
	sc := core.GetBatchScratch()
	defer sc.Release()
	vals := sc.Vals(n)
	oks := sc.Bools(n)
	missIdx := sc.Ints(n)[:0]
	missKeys := sc.Keys(n)[:0]
	var missVers []uint64
	var missEnts []*rcEntry // probe-time residents (admission victims)
	var missExp []bool      // resident was this key, past its TTL
	st := c.Stat()
	for i, k := range keys {
		sl := r.slot(k)
		e := sl.entry.Load()
		expired := false
		if e != nil && e.key == k {
			if !r.expired(e) {
				vals[i], oks[i] = e.val, true
				if st != nil {
					st.RecordCacheHit()
				}
				continue
			}
			expired = true
		}
		if st != nil {
			st.RecordCacheMiss(expired)
		}
		// Version snapshot BEFORE the inner read, per the fill protocol.
		missIdx = append(missIdx, i)
		missKeys = append(missKeys, k)
		missVers = append(missVers, sl.ver.Load())
		missEnts = append(missEnts, e)
		missExp = append(missExp, expired)
	}
	if len(missIdx) > 0 {
		core.AsBatcher(r.inner).MultiGet(c, missKeys, func(j int, v core.Value, ok bool) {
			vals[missIdx[j]], oks[missIdx[j]] = v, ok
		})
		for j, i := range missIdx {
			if !oks[i] || missVers[j]&1 != 0 {
				continue
			}
			if missExp[j] || r.admit(keys[i], missEnts[j]) {
				r.fill(c, r.slot(keys[i]), keys[i], vals[i], missVers[j])
			} else if st != nil {
				st.RecordCacheReject()
			}
		}
	}
	for i := 0; i < n; i++ {
		f(i, vals[i], oks[i])
	}
}

// MultiPut implements core.Batcher: an htm.Try optimistic batch commit
// (try-acquire every touched slot lock, run the whole invalidation
// protocol and ONE inner sub-batch under them) with the per-key locked
// update loop as the structural fallback.
func (r *ReadCache) MultiPut(c *core.Ctx, pairs []core.KV, f func(i int, inserted bool)) {
	n := len(pairs)
	if n == 0 {
		return
	}
	sc := core.GetBatchScratch()
	defer sc.Release()
	res := sc.Bools(n)
	if r.tryBatchUpdate(c, sc, core.BatchPut, pairs, res) {
		for i := range res {
			f(i, res[i])
		}
		return
	}
	for i, kv := range pairs {
		f(i, r.Put(c, kv.K, kv.V))
	}
}

// MultiRemove implements core.Batcher; see MultiPut.
func (r *ReadCache) MultiRemove(c *core.Ctx, keys []core.Key, f func(i int, removed bool)) {
	n := len(keys)
	if n == 0 {
		return
	}
	sc := core.GetBatchScratch()
	defer sc.Release()
	pairs := sc.KVs(n)
	for i, k := range keys {
		pairs[i] = core.KV{K: k}
	}
	res := sc.Bools(n)
	if r.tryBatchUpdate(c, sc, core.BatchRemove, pairs, res) {
		for i := range res {
			f(i, res[i])
		}
		return
	}
	for i, k := range keys {
		f(i, r.Remove(c, k))
	}
}

// tryBatchUpdate is the optimistic half of the batched update: one
// htm.Try attempt that try-acquires the deduplicated slot locks
// all-or-nothing (no blocking, so colliding batches cannot deadlock on
// overlapping slot sets), bumps every version odd, drops matching
// entries, runs ONE inner sub-batch, and bumps the versions back.
// Reports whether it committed; on abort (slot contention, emulated
// capacity, injected interrupt) the caller falls back to the per-key
// locked loop.
func (r *ReadCache) tryBatchUpdate(c *core.Ctx, sc *core.BatchScratch, op core.BatchOp, pairs []core.KV, res []bool) bool {
	slots := sc.Ints(len(pairs))[:0]
	for _, kv := range pairs {
		if i := r.slotIndex(kv.K); !slices.Contains(slots, i) {
			slots = append(slots, i)
		}
	}
	sk := sinkPool.Get().(*sink)
	defer sk.release()
	sk.oks = res
	return htm.Try(c.Stat(), c.Injector(), func(a *htm.Acq) htm.Status {
		for _, i := range slots {
			if !a.Lock(&r.slots[i].mu) {
				return a.AbortStatus()
			}
		}
		if !a.Commit() {
			return a.AbortStatus()
		}
		for _, i := range slots {
			r.slots[i].ver.Add(1) // odd: batch update in flight, fills stand down
		}
		for _, kv := range pairs {
			sl := r.slot(kv.K)
			if e := sl.entry.Load(); e != nil && e.key == kv.K {
				sl.entry.Store(nil)
			}
		}
		b := core.AsBatcher(r.inner)
		if op == core.BatchPut {
			b.MultiPut(c, pairs, sk.put)
		} else {
			keys := sc.Keys(len(pairs))
			for j, kv := range pairs {
				keys[j] = kv.K
			}
			b.MultiRemove(c, keys, sk.put)
		}
		for _, i := range slots {
			r.slots[i].ver.Add(1) // even again
		}
		return htm.Committed
	})
}
