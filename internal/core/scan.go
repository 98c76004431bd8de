// Range-scan layer of the set abstraction: the Scanner optional interface
// and the shared validation machinery behind every structure's
// linearizable scan protocol.
//
// The paper's structures are point-op machines (Get/Put/Remove); scans are
// the next scaling axis (ranked feeds, prefix queries, windowed
// aggregation), and they must not betray the paper's thesis by putting
// synchronization on the read path. The protocol here keeps point reads
// untouched and charges updates two uncontended atomic adds on a
// per-instance cache line; scanners do all the validation work themselves:
//
//   - optimistic phase: snapshot the instance's update version, collect
//     the range with plain (atomic-load) traversal, and accept the
//     collection only if no update ran concurrently — the multi-writer
//     generalization of a seqlock read;
//   - bounded retries: under update churn the optimistic phase can keep
//     losing; after a few attempts the scanner falls back to
//   - a brief per-instance barrier: writers entering the instance park
//     (instrumented, so the paper's lock-wait metrics see the only wait
//     scans ever impose) while the scanner takes one clean pass. Point
//     reads never wait, scanning or not.
//
// Partitioned composites (striped, sharded, elastic, bucketed hash
// tables) scan part by part, so the barrier radius of a fallback is one
// stripe/shard/bucket-table — a segment — never the whole composite.
// What a composite scan or page promises is the same however it visits
// its parts (stripe by stripe, block by block on a block-hashed
// partition, or all parts merged): every pull is one atomic sub-snapshot
// of one part taken inside the call, the pulled key windows are disjoint,
// and so every reported presence or absence was true at some instant
// inside the call and no key is visited twice. A block walk may pull one
// part more than once per call — at different instants, for different
// blocks.
package core

import (
	"cmp"
	"runtime"
	"slices"
	"sync/atomic"

	"csds/internal/fault"
	"csds/internal/locks"
	"csds/internal/stats"
)

// Scanner is an optional Set extension: linearizable range scans. Scan
// visits the mappings with lo <= k < hi, each key at most once, and stops
// early when f returns false; it reports whether it reached the end of
// the range (false = stopped by f). Every structure in this module scans
// in ascending key order: the ordered structures natively, the
// hash-partitioned composites by walking a narrow window's key blocks
// in order or sorting a wide one's merge, and the hash tables off their
// ordered key index (a sorted shadow maintained under the same write
// brackets the scans validate against).
//
// Consistency: on a single structure instance the visited mappings are
// one atomic snapshot of the range — the scan linearizes at a single
// point during the call. Partitioned composites pull their parts in
// sequence with one atomic snapshot per pull, so every reported presence
// or absence is the key's true state at some instant inside the call
// (per-key window consistency), parts never disagree about the same key
// (the partitions are disjoint), and no key is visited twice.
//
// f must not call back into the same structure (some protocols hold
// internal locks across the replay).
type Scanner interface {
	Scan(c *Ctx, lo, hi Key, f func(k Key, v Value) bool) bool
}

// scanWriterOne is the in-flight-writer unit of ScanGuard.state: writers
// count in the high 16 bits, the update version in the low 48. A version
// wrap into the writer bits needs 2^48 state-changing updates inside one
// instance — decades of sustained churn — so the packing is safe for any
// real run.
const scanWriterOne = uint64(1) << 48

// scanAttempts bounds the optimistic phase before a scan falls back to
// the write barrier.
const scanAttempts = 8

// ScanGuard is the per-instance validation cell of the optimistic scan
// protocol. Structures embed one and bracket every state-changing
// mutation (and only those — failed Puts/Removes touch nothing) with
// BeginWrite/EndWrite; GuardedScan does the rest.
//
// BeginWrite publishes the writer (writer count +1) and bumps the update
// version in one atomic add, *before* the mutation's first store, so a
// scanner that observed a quiescent version before its collect and an
// unchanged one after it has proof that no mutation overlapped the
// collect: a mutation M inside the collect window either bumped the
// version after the scanner's first read (version check fails) or bumped
// it before — in which case its writer slot was still occupied at the
// scanner's first read (writer check fails), since EndWrite follows M.
type ScanGuard struct {
	state atomic.Uint64 // writers<<48 | version
	block atomic.Bool
	mu    locks.TAS // serializes fallback scanners
}

// BeginWrite opens a mutation window. Call it immediately before the
// first membership-changing store/CAS of an update (after the operation
// has decided it will mutate); waits, if any (only while a fallback scan
// holds the barrier), record into t like every lock in this module.
func (g *ScanGuard) BeginWrite(t *stats.Thread) {
	if g == nil {
		return
	}
	for {
		g.state.Add(scanWriterOne | 1)
		if !g.block.Load() {
			return
		}
		// A fallback scanner holds the barrier: retract the writer slot
		// (the version bump stays; it is only ever spurious) and park
		// until the barrier clears.
		g.state.Add(^uint64(scanWriterOne - 1))
		locks.WaitWhile(t, func() bool { return g.block.Load() })
	}
}

// EndWrite closes the window opened by BeginWrite. Call it after the
// mutation's last membership-relevant store/CAS.
func (g *ScanGuard) EndWrite() {
	if g == nil {
		return
	}
	g.state.Add(^uint64(scanWriterOne - 1))
}

// WriteYield briefly closes an open write bracket when a fallback
// scanner has raised the freeze barrier, reopening it once the barrier
// clears. Batched writers call this between keys: a batch amortizes
// one bracket over many mutations, and without the yield a frozen
// scanner (which drains writers) could wait on the batch while the
// batch waits on a lock held by a writer parked behind the barrier.
// Reports whether the bracket was yielded — the caller must then
// re-validate any optimistic position it carried across keys.
func (g *ScanGuard) WriteYield(t *stats.Thread) bool {
	if g == nil || !g.block.Load() {
		return false
	}
	g.EndWrite()
	g.BeginWrite(t) // parks until the barrier clears
	return true
}

// snapshot reads the guard state; ok reports a quiescent instance (no
// writer mid-mutation), the precondition for an optimistic collect.
func (g *ScanGuard) snapshot() (s uint64, ok bool) {
	s = g.state.Load()
	return s, s>>48 == 0 && !g.block.Load()
}

// validate accepts an optimistic collect that began at snapshot s.
func (g *ScanGuard) validate(s uint64) bool {
	return g.state.Load() == s
}

// freeze raises the write barrier and drains in-flight writers; the
// instance is then update-quiescent until unfreeze. Fallback scanners
// serialize on the guard's own lock, so at most one barrier is ever up.
func (g *ScanGuard) freeze(t *stats.Thread) {
	g.mu.Acquire(t)
	g.block.Store(true)
	locks.WaitWhile(t, func() bool { return g.state.Load()>>48 != 0 })
}

// unfreeze lowers the barrier raised by freeze.
func (g *ScanGuard) unfreeze() {
	g.block.Store(false)
	g.mu.Release()
}

// ScanPair is one collected mapping.
type ScanPair struct {
	K Key
	V Value
}

// guardedCollect drives pass — one restartable collect into the caller's
// frame — under g's protocol: optimistic validated attempts, then the
// write barrier. It returns the number of optimistic attempts spent
// before the accepted pass (scanAttempts = fell back to the barrier).
func guardedCollect(c *Ctx, g *ScanGuard, pass func()) int {
	for attempt := 0; attempt < scanAttempts; attempt++ {
		s, ok := g.snapshot()
		if !ok {
			// A mutation (or a fallback barrier) is in flight; let it
			// finish rather than collecting a doomed snapshot.
			runtime.Gosched()
			continue
		}
		pass()
		// A forced guard failure (chaos plane) discards an otherwise
		// consistent snapshot, driving the retry and barrier paths.
		if g.validate(s) && !c.Injector().Fire(fault.GuardFail) {
			return attempt
		}
	}
	// Optimistic phase lost to churn: briefly park this instance's
	// writers and take one clean pass. Readers are unaffected.
	g.freeze(c.Stat())
	pass()
	g.unfreeze()
	return scanAttempts
}

// GuardedScan runs a structure's range collect under g's protocol:
// optimistic validated attempts, then the write barrier. collect must
// traverse the structure with atomic loads only, emit every in-range
// mapping, and be restartable (it runs again after a failed validation);
// the collected snapshot replays through f only once it is known
// consistent. Returns false iff f stopped the replay early.
func GuardedScan(c *Ctx, g *ScanGuard, collect func(emit func(k Key, v Value)), f func(k Key, v Value) bool) bool {
	fr := getFrame()
	c.RecordScanRetries(guardedCollect(c, g, func() {
		fr.buf = fr.buf[:0]
		collect(fr.scan)
	}))
	finished := ReplayScan(fr.buf, f)
	fr.release()
	return finished
}

// ReplayScan drives a collected snapshot through the user callback,
// honoring early stop. Shared by GuardedScan and the composites'
// collect-and-merge scans.
func ReplayScan(buf []ScanPair, f func(k Key, v Value) bool) bool {
	for _, p := range buf {
		if !f(p.K, p.V) {
			return false
		}
	}
	return true
}

// SortScanPairs orders a collected snapshot by key — the merge step of
// hash-partitioned composite scans (sharded, elastic), which collect per
// shard and still deliver the ascending order every ordered scan in this
// module promises.
func SortScanPairs(buf []ScanPair) {
	slices.SortFunc(buf, func(a, b ScanPair) int { return cmp.Compare(a.K, b.K) })
}

// RecordScanRetries forwards a scan's optimistic-validation retry count,
// tolerating nil (mirrors RecordRestarts; scans keep their own counter so
// the point-op restart metrics of the paper stay unpolluted).
func (c *Ctx) RecordScanRetries(n int) {
	if c != nil && c.Stats != nil {
		c.Stats.RecordScanRetries(n)
	}
}
