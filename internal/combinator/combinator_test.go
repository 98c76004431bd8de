package combinator

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"csds/internal/core"
	"csds/internal/settest"
	"csds/internal/xrand"

	// Populate the algorithm registry with the leaves the specs name.
	_ "csds/internal/bst"
	_ "csds/internal/hashtable"
	_ "csds/internal/list"
	_ "csds/internal/skiplist"
)

// runSpecs runs a settest battery on each spec, resolved through the
// layered core factory, as a subtest named after the spec. The battery
// adds the resize legs of elastic specs and the Elided legs of specs over
// a speculating leaf itself.
func runSpecs(t *testing.T, battery func(*testing.T, settest.Factory), specs ...string) {
	t.Helper()
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			f, err := core.NewFactory(spec)
			if err != nil {
				t.Fatalf("resolving %s: %v", spec, err)
			}
			battery(t, f)
		})
	}
}

// TestCompositeSuites runs the full linearizable-set conformance battery
// against the acceptance composites and a nested one.
func TestCompositeSuites(t *testing.T) {
	runSpecs(t, settest.Run,
		"sharded(16,list/lazy)",
		"striped(8,skiplist/herlihy)",
		"readcache(1024,bst/tk)",
		"readcache(64,sharded(4,hashtable/lazy))",
	)
}

// TestCompositeSuitesMoreLeaves cross-checks each combinator over a
// different progress class (lock-free and wait-free leaves must compose
// just as well as blocking ones).
func TestCompositeSuitesMoreLeaves(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-product suites are the long battery")
	}
	runSpecs(t, settest.Run,
		"sharded(4,list/harris)",
		"striped(4,list/waitfree)",
		"readcache(128,list/harris)",
	)
}

// TestCompositeScanners runs the linearizable range-scan battery over
// every combinator. Striped walks stripes in key order, sharded walks
// blocks or replays its collected shards block by block, elastic always
// replays, readcache inherits the inner order — and since the hash
// tables grew their ordered key index, every leaf in the module scans
// ascending, so every composite does too.
func TestCompositeScanners(t *testing.T) {
	runSpecs(t, settest.RunScanner,
		"sharded(16,list/lazy)",
		"sharded(4,hashtable/lazy)",    // wide windows replay the hash leaves by block
		"sharded(32,skiplist/herlihy)", // the repo benchmark's range spec
		"striped(8,skiplist/herlihy)",
		"striped(4,hashtable/lazy)",
		"readcache(1024,bst/tk)",
		"readcache(64,sharded(4,hashtable/lazy))",
		"elastic(4,list/lazy)",
		"striped(4,sharded(2,list/lazy))",
	)
}

// TestCompositeScannersMoreLeaves cross-checks scans over lock-free and
// wait-free leaves (the long battery).
func TestCompositeScannersMoreLeaves(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-product suites are the long battery")
	}
	runSpecs(t, settest.RunScanner, moreLeaves...)
}

// moreLeaves are the long battery's composites over lock-free and
// wait-free leaves.
var moreLeaves = []string{
	"sharded(4,list/harris)",
	"striped(4,list/waitfree)",
	"striped(4,skiplist/lockfree)",
	"elastic(4,bst/tk)",
}

// TestCompositeCursors runs the paginated-iteration battery across the
// combinator grid: merge cursors (sharded), per-stripe resumption
// (striped), delegation (readcache), epoch-disciplined merges (elastic),
// and nesting — including hash-table leaves, whose cursor pages are
// sorted into the same ascending order every composite promises.
func TestCompositeCursors(t *testing.T) {
	runSpecs(t, settest.RunCursor,
		"sharded(16,list/lazy)",
		"sharded(4,hashtable/lazy)",
		"sharded(32,skiplist/herlihy)", // the repo benchmark's range spec
		"striped(8,skiplist/herlihy)",
		"striped(4,hashtable/lazy)",
		"readcache(1024,bst/tk)",
		"readcache(64,sharded(4,hashtable/lazy))",
		"elastic(4,list/lazy)",
		"striped(4,sharded(2,list/lazy))",
	)
}

// TestCompositeCursorsMoreLeaves cross-checks cursors over lock-free and
// wait-free leaves (the long battery).
func TestCompositeCursorsMoreLeaves(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-product suites are the long battery")
	}
	runSpecs(t, settest.RunCursor, moreLeaves...)
}

// TestCompositeBatchers runs the batched-operation battery over every
// combinator: shard-grouped sub-batches (sharded, including the
// single-shard flat-combining path), the same routed paths under range
// routing (striped), probe-then-forward (readcache), epoch- and
// gate-disciplined grouping (elastic), and nesting. sharded(1,...) maximizes the single-shard
// combine path's exposure; sharded(·,skiplist/herlihy) is the one-call
// PartBatcher path (the repo benchmark's range spec at 32).
func TestCompositeBatchers(t *testing.T) {
	runSpecs(t, settest.RunBatcher,
		"sharded(16,list/lazy)",
		"sharded(1,list/lazy)",
		"sharded(4,hashtable/lazy)",
		"sharded(32,skiplist/herlihy)",
		"sharded(4,skiplist/herlihy)",
		"striped(8,skiplist/herlihy)",
		"readcache(1024,bst/tk)",
		"readcache(64,sharded(4,hashtable/lazy))",
		"elastic(4,list/lazy)",
		"striped(4,sharded(2,list/lazy))",
	)
}

// TestCompositeBatchersMoreLeaves cross-checks batches over lock-free
// and wait-free leaves (the long battery).
func TestCompositeBatchersMoreLeaves(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-product suites are the long battery")
	}
	runSpecs(t, settest.RunBatcher, moreLeaves...)
}

// TestElasticBatchUnderResize is the acceptance point of the batch
// battery: batches over elastic composites must keep the per-key
// algebra and anchor visibility — every element linearizing inside its
// call — while a dedicated goroutine grows and shrinks the shard map
// between (and during) batches (the battery's UnderResize legs).
func TestElasticBatchUnderResize(t *testing.T) {
	runSpecs(t, settest.RunBatcher, "elastic(2,list/lazy)", "elastic(2,skiplist/herlihy)")
}

// TestElasticCursorUnderResize is the acceptance point of the cursor
// battery: pagination over elastic composites must stay duplicate-free
// and anchor-complete — and tokens must keep resuming — while a
// dedicated goroutine grows and shrinks the shard map between (and
// during) pages.
func TestElasticCursorUnderResize(t *testing.T) {
	runSpecs(t, settest.RunCursor, "elastic(2,list/lazy)", "elastic(2,skiplist/herlihy)")
}

// TestElasticScanUnderResize is the acceptance point of the scan
// battery: elastic composites must return consistent snapshots while a
// dedicated goroutine grows and shrinks the shard map mid-scan.
func TestElasticScanUnderResize(t *testing.T) {
	runSpecs(t, settest.RunScanner, "elastic(2,list/lazy)", "elastic(2,skiplist/herlihy)")
}

func ctx() *core.Ctx { return core.NewCtx(0) }

func TestShardedRoutingAndLen(t *testing.T) {
	s, err := core.Build("sharded(16,list/lazy)", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh := s.(*Partition)
	if sh.Parts() != 16 {
		t.Fatalf("Parts = %d", sh.Parts())
	}
	c := ctx()
	// The router hashes aligned 64-key blocks, so spread is a property of
	// blocks: one key per block.
	const n, stride = 1000, 1 << routeBlockBits
	for k := core.Key(stride); k <= n*stride; k += stride {
		if !s.Put(c, k, k) {
			t.Fatalf("Put(%d) failed", k)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	// Hash partitioning must actually spread: with 1000 blocks over 16
	// shards no shard should be empty or hold more than a third.
	for i, inner := range sh.parts {
		l := inner.Len()
		if l == 0 || l > n/3 {
			t.Fatalf("shard %d holds %d of %d keys — degenerate hash spread", i, l, n)
		}
	}
	// Routing is deterministic: the shard that answers Get is the one
	// that absorbed Put.
	for k := core.Key(stride); k <= n*stride; k += stride {
		if v, ok := sh.parts[sh.r.index(k)].Get(c, k); !ok || v != k {
			t.Fatalf("key %d not in its own shard", k)
		}
	}
}

func TestStripedOrderPreserving(t *testing.T) {
	// With a size hint, the partition domain is the workload's dense key
	// span [0, 2*ExpectedSize) — the configuration the harness produces.
	s, err := core.Build("striped(8,list/lazy)", core.Options{ExpectedSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	st := s.(*Partition)
	if st.Parts() != 8 {
		t.Fatalf("Parts = %d", st.Parts())
	}
	// Stripe index must be monotone in the key across the whole signed
	// range, including the extremes next to the sentinels.
	keys := []core.Key{core.KeyMin + 1, -3, 0, 3, 256, 512, 1024, 2047, 1 << 40, core.KeyMax - 1}
	last := -1
	for _, k := range keys {
		idx := st.r.index(k)
		if idx < last {
			t.Fatalf("stripe index not monotone at key %d: %d < %d", k, idx, last)
		}
		last = idx
	}
	// Out-of-domain keys clamp to the end stripes.
	if st.r.index(core.KeyMin+1) != 0 || st.r.index(-1) != 0 {
		t.Fatal("keys below the domain not clamped to the first stripe")
	}
	if st.r.index(1<<40) != 7 || st.r.index(core.KeyMax-1) != 7 {
		t.Fatal("keys above the domain not clamped to the last stripe")
	}
}

// TestStripedSpreadsWorkloadKeys pins the regression where partitioning
// the whole int64 line funnelled every dense workload key (1..2*Size)
// into the middle stripe, making striping a no-op for real runs.
func TestStripedSpreadsWorkloadKeys(t *testing.T) {
	const size = 1024
	s, err := core.Build("striped(8,list/lazy)", core.Options{ExpectedSize: size})
	if err != nil {
		t.Fatal(err)
	}
	st := s.(*Partition)
	c := ctx()
	for k := core.Key(1); k <= 2*size; k++ {
		if !s.Put(c, k, k) {
			t.Fatalf("Put(%d) failed", k)
		}
	}
	if s.Len() != 2*size {
		t.Fatalf("Len = %d", s.Len())
	}
	for i, inner := range st.parts {
		l := inner.Len()
		if l == 0 || l > 2*size/4 {
			t.Fatalf("stripe %d holds %d of %d workload keys — degenerate partition", i, l, 2*size)
		}
	}
	// Order preservation: each stripe's keys form one contiguous run.
	lastStripe := 0
	for k := core.Key(1); k <= 2*size; k++ {
		idx := st.r.index(k)
		if idx < lastStripe {
			t.Fatalf("key %d routed backwards: stripe %d after %d", k, idx, lastStripe)
		}
		lastStripe = idx
	}
}

// TestStripedWidthClampsToSpan pins the degenerate-partition fix: with a
// key span smaller than the stripe count, per-stripe width used to round
// to 1 and the trailing stripes could never receive a key. The effective
// width now clamps to the span and Parts reports it.
func TestStripedWidthClampsToSpan(t *testing.T) {
	s, err := core.Build("striped(8,list/lazy)", core.Options{KeySpan: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := s.(*Partition)
	if st.Parts() != 3 {
		t.Fatalf("Parts = %d, want 3 (clamped to the span)", st.Parts())
	}
	c := ctx()
	for k := core.Key(0); k < 3; k++ {
		if !s.Put(c, k, k) {
			t.Fatalf("Put(%d) failed", k)
		}
	}
	// Every stripe must be reachable: the three domain keys land on three
	// distinct stripes.
	for i, inner := range st.parts {
		if inner.Len() != 1 {
			t.Fatalf("stripe %d holds %d keys, want exactly 1", i, inner.Len())
		}
	}
	// Out-of-domain keys still clamp to the end stripes.
	if st.r.index(100) != 2 || st.r.index(-5) != 0 {
		t.Fatal("clamping to end stripes broken by the width clamp")
	}
	// A span of zero (no hints) must keep the full-domain behaviour.
	wide, err := core.Build("striped(8,list/lazy)", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w := wide.(*Partition).Parts(); w != 8 {
		t.Fatalf("hint-less striped clamped to %d, want 8", w)
	}
}

// TestSpecValidation exercises the per-combinator argument checks wired
// into spec resolution: out-of-range widths and capacities fail with an
// actionable error before anything is constructed.
func TestSpecValidation(t *testing.T) {
	for _, tc := range []struct{ spec, wantSub string }{
		{"sharded(100000,list/lazy)", "width 100000 exceeds"},
		{"striped(70000,list/lazy)", "width 70000 exceeds"},
		{"elastic(9999999,list/lazy)", "width 9999999 exceeds"},
	} {
		_, err := core.Build(tc.spec, core.Options{})
		if err == nil {
			t.Fatalf("%s: validation accepted an absurd width", tc.spec)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q does not mention %q", tc.spec, err, tc.wantSub)
		}
	}
	// In-range widths still resolve.
	if _, err := core.Build("sharded(64,list/lazy)", core.Options{}); err != nil {
		t.Fatalf("sharded(64,...) rejected: %v", err)
	}
}

// countingSet wraps an inner set and counts the Gets that reach it, so
// tests can observe cache hits (which must NOT reach the inner set)
// without a hot-path hit counter in the cache itself.
type countingSet struct {
	core.Set
	gets atomic.Uint64
}

func (cs *countingSet) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	cs.gets.Add(1)
	return cs.Set.Get(c, k)
}

func TestReadCacheHitsAndInvalidation(t *testing.T) {
	inner, err := core.Build("list/lazy", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	counting := &countingSet{Set: inner}
	rc := NewReadCache(1024, counting)
	var s core.Set = rc
	if rc.Capacity() != 1024 {
		t.Fatalf("Capacity = %d", rc.Capacity())
	}
	c := ctx()
	s.Put(c, 7, 70)
	if _, ok := s.Get(c, 7); !ok {
		t.Fatal("miss fill failed")
	}
	innerGets := counting.gets.Load()
	if rc.Fills() == 0 {
		t.Fatal("miss did not fill the cache")
	}
	if v, ok := s.Get(c, 7); !ok || v != 70 {
		t.Fatalf("cached Get = (%d, %v)", v, ok)
	}
	if counting.gets.Load() != innerGets {
		t.Fatal("second Get reached the inner set — cache did not serve the hit")
	}
	// Invalidation: remove must not leave the stale mapping readable.
	if !s.Remove(c, 7) {
		t.Fatal("Remove failed")
	}
	if _, ok := s.Get(c, 7); ok {
		t.Fatal("stale cache hit after Remove")
	}
	// Reinsert with a different value: the cache must never serve 70.
	s.Put(c, 7, 71)
	for i := 0; i < 3; i++ {
		if v, ok := s.Get(c, 7); !ok || v != 71 {
			t.Fatalf("after reinsert Get = (%d, %v), want (71, true)", v, ok)
		}
	}
}

func TestReadCacheCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {1000, 1024}, {1024, 1024}, {0, 1}, {-5, 1},
	} {
		inner, err := core.Build("list/lazy", core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rc := NewReadCache(tc.in, inner)
		if rc.Capacity() != tc.want {
			t.Fatalf("capacity %d rounded to %d, want %d", tc.in, rc.Capacity(), tc.want)
		}
	}
}

// TestReadCacheNoStaleHitsUnderChurn hammers a single hot key with
// concurrent removes/reinserts while readers check they only ever observe
// values that were legitimately inserted and, after a quiesce, the final
// state. This targets the fill-vs-invalidate race directly.
func TestReadCacheNoStaleHitsUnderChurn(t *testing.T) {
	s, err := core.Build("readcache(64,list/lazy)", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const hot = core.Key(42)
	const iters = 20000
	var stop, readers sync.WaitGroup
	done := make(chan struct{})
	var bad sync.Once
	var mu sync.Mutex
	var failure string

	// One writer alternates the hot key between two values via
	// remove+insert; colliding churn runs on neighbouring keys.
	stop.Add(1)
	go func() {
		defer stop.Done()
		c := core.NewCtx(1)
		val := core.Value(100)
		for i := 0; i < iters; i++ {
			s.Remove(c, hot)
			if val == 100 {
				val = 200
			} else {
				val = 100
			}
			s.Put(c, hot, val)
		}
	}()
	stop.Add(1)
	go func() {
		defer stop.Done()
		c := core.NewCtx(2)
		rng := xrand.New(7)
		for i := 0; i < iters; i++ {
			k := core.Key(1 + rng.Int63n(500))
			if k == hot {
				continue
			}
			if rng.Bool(0.5) {
				s.Put(c, k, k)
			} else {
				s.Remove(c, k)
			}
		}
	}()
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			c := core.NewCtx(10 + r)
			for {
				select {
				case <-done:
					return
				default:
				}
				if v, ok := s.Get(c, hot); ok && v != 100 && v != 200 {
					bad.Do(func() {
						mu.Lock()
						failure = "reader observed a value never inserted"
						mu.Unlock()
					})
					return
				}
			}
		}(r)
	}
	stop.Wait()
	close(done)
	readers.Wait()
	mu.Lock()
	f := failure
	mu.Unlock()
	if f != "" {
		t.Fatal(f)
	}
	// Quiesced: the final value must be the last inserted one, not a
	// resurrected cache line.
	c := ctx()
	v, ok := s.Get(c, hot)
	if !ok || (v != 100 && v != 200) {
		t.Fatalf("final state corrupt: (%d, %v)", v, ok)
	}
	if !s.Remove(c, hot) {
		t.Fatal("final Remove failed")
	}
	if _, ok := s.Get(c, hot); ok {
		t.Fatal("hot key readable after final Remove — stale cache line")
	}
}

// TestStripedKeySpanDomain pins the follow-up regression: when the
// workload's key space is configured independently of the structure size
// (workload.Config.KeySpace), the harness threads it through
// Options.KeySpan and striping must divide THAT domain — not
// 2*ExpectedSize, which would clamp nearly every key into the last
// stripe.
func TestStripedKeySpanDomain(t *testing.T) {
	const span = 1 << 20
	s, err := core.Build("striped(8,list/lazy)",
		core.Options{ExpectedSize: 1024, KeySpan: span + 1})
	if err != nil {
		t.Fatal(err)
	}
	st := s.(*Partition)
	c := ctx()
	const n = 4096
	for i := 0; i < n; i++ {
		k := core.Key(1 + i*(span/n))
		if !s.Put(c, k, k) {
			t.Fatalf("Put(%d) failed", k)
		}
	}
	for i, inner := range st.parts {
		l := inner.Len()
		if l == 0 || l > n/4 {
			t.Fatalf("stripe %d holds %d of %d span-wide keys — KeySpan domain ignored", i, l, n)
		}
	}
}

// TestSplitOptions checks the size hints divide across partitions while
// the key-domain hint is materialized and passed through undivided.
func TestSplitOptions(t *testing.T) {
	o := splitOptions(core.Options{ExpectedSize: 1000, Buckets: 64}, 16)
	if o.ExpectedSize != 63 || o.Buckets != 4 {
		t.Fatalf("splitOptions = %+v", o)
	}
	if o.KeySpan != 2000 {
		t.Fatalf("KeySpan not materialized from ExpectedSize: %+v", o)
	}
	o = splitOptions(core.Options{ExpectedSize: 1000, KeySpan: 4096}, 8)
	if o.KeySpan != 4096 {
		t.Fatalf("explicit KeySpan not preserved: %+v", o)
	}
	o = splitOptions(core.Options{ExpectedSize: 1000}, 1)
	if o.ExpectedSize != 1000 {
		t.Fatalf("1-way split changed size: %+v", o)
	}
	if n := clampParts(0); n != 1 {
		t.Fatalf("clampParts(0) = %d", n)
	}
}

// TestNestedStripedKeepsDomain pins the nested-composite regression:
// striped under sharded must partition the composite's whole key domain,
// not a domain derived from the outer layer's divided size hint (which
// would clamp ~1-1/N of each shard's keys into its last stripe).
func TestNestedStripedKeepsDomain(t *testing.T) {
	// The outer layer routes aligned 64-key blocks, so the domain is 64x
	// the original 2048 keys and carries one key per block: every shard
	// still receives keys from all over the domain.
	const stride = 1 << routeBlockBits
	s, err := core.Build("sharded(4,striped(8,list/lazy))", core.Options{ExpectedSize: 1024 * stride})
	if err != nil {
		t.Fatal(err)
	}
	c := ctx()
	const span = 2048 * stride // the paper's convention: 2 * ExpectedSize
	for k := core.Key(stride); k < span; k += stride {
		if !s.Put(c, k, k) {
			t.Fatalf("Put(%d) failed", k)
		}
	}
	for si, shard := range s.(*Partition).parts {
		st := shard.(*Partition)
		total := st.Len()
		for i, inner := range st.parts {
			l := inner.Len()
			if l > total/2 {
				t.Fatalf("shard %d stripe %d holds %d of %d keys — inner domain derived from divided size", si, i, l, total)
			}
		}
	}
}

// TestCombinatorStatsFlow verifies the fine-grained metrics of inner
// structures surface through a composite: contended updates on a sharded
// lazy list must record lock acquisitions into the caller's stats slot.
func TestCombinatorStatsFlow(t *testing.T) {
	s, err := core.Build("sharded(4,list/lazy)", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := ctx()
	for k := core.Key(1); k <= 200; k++ {
		s.Put(c, k, k)
		s.Remove(c, k)
	}
	if c.Stats.LockAcqs == 0 {
		t.Fatal("no lock acquisitions recorded through the sharded layer")
	}
}

// TestStreamingMergeVisitBound pins the tentpole acceptance number of
// the streaming cursor merge: a wide composite's cursor pages must
// visit at most 2·max keys per page on average (counter-verified via
// the page pull counters), where the old eager merge visited up to
// k·max — 32·max on these 32-way composites. The page size is chosen
// so max/k clears the refill-chunk floor, the regime the streaming
// merge is sized for.
func TestStreamingMergeVisitBound(t *testing.T) {
	span := core.Key(1 << 16)
	if testing.Short() {
		span = 1 << 14
	}
	const max = 512
	for _, spec := range []string{"sharded(32,list/lazy)", "elastic(32,list/lazy)"} {
		t.Run(spec, func(t *testing.T) {
			f, err := core.NewFactory(spec)
			if err != nil {
				t.Fatal(err)
			}
			s := f(core.Options{ExpectedSize: int(span / 2), KeySpan: span})
			fill := core.NewCtx(0)
			want := 0
			for k := core.Key(0); k < span; k += 2 {
				if !s.Put(fill, k, k) {
					t.Fatalf("fill insert %d failed", k)
				}
				want++
			}
			c := core.NewCtx(1)
			cur := s.(core.Cursor)
			pos, delivered, pages := core.Key(0), 0, 0
			for {
				next, done := cur.CursorNext(c, pos, span, max, func(core.Key, core.Value) bool {
					delivered++
					return true
				})
				pages++
				if pages > want {
					t.Fatal("iteration never finished")
				}
				if done {
					break
				}
				pos = next
			}
			if delivered != want {
				t.Fatalf("iteration delivered %d keys, want %d", delivered, want)
			}
			pulled := c.Stats.PagePullKeys
			if bound := uint64(2 * max * pages); pulled > bound {
				t.Fatalf("%d pages pulled %d keys (%.1f/page) — streaming bound 2·max=%d/page exceeded",
					pages, pulled, float64(pulled)/float64(pages), 2*max)
			}
			if eager := uint64(32 * max * pages); pulled > eager/4 {
				t.Fatalf("pulled %d keys, within 4x of the eager merge's %d — streaming win not realized", pulled, eager)
			}
		})
	}
}
