package harness

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"csds/internal/core"
	"csds/internal/fault"
	"csds/internal/stats"
	"csds/internal/workload"

	_ "csds/internal/bst"
	_ "csds/internal/combinator"
	_ "csds/internal/hashtable"
	_ "csds/internal/list"
	_ "csds/internal/skiplist"
)

func quick(alg string) Config {
	return Config{
		Algorithm: alg,
		Threads:   4,
		Duration:  40 * time.Millisecond,
		Workload:  workload.Config{Size: 128, UpdateRatio: 0.1},
	}
}

func TestRunBasic(t *testing.T) {
	res, err := Run(quick("list/lazy"))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps == 0 || res.Throughput <= 0 {
		t.Fatalf("no throughput measured: %+v", res)
	}
	if res.PerThreadMean <= 0 {
		t.Fatal("per-thread throughput missing")
	}
}

// TestScanMetricsBuckets pins the scan metric plumbing deterministically:
// hand-crafted per-thread counters through summarize must land in the
// scan-specific Result fields and leave the point-op fields exactly what
// they were — scans never masquerade as point operations.
func TestScanMetricsBuckets(t *testing.T) {
	cfg := quick("list/lazy")
	cfg.Threads = 1
	ths := []stats.Thread{{
		Ops:      1000,
		Reads:    1000,
		ActiveNs: 1e9, // 1 s window
		// 10 scans, 50 keys each, 2ms each, worst 5ms, 3 retries total.
		Scans:       10,
		ScanKeys:    500,
		ScanNs:      20e6,
		MaxScanNs:   5e6,
		ScanRetries: 3,
	}}
	res := summarize(cfg, ths, nil)
	if res.TotalOps != 1000 || res.Throughput != 1000 {
		t.Fatalf("point-op throughput polluted by scans: ops=%d thr=%v", res.TotalOps, res.Throughput)
	}
	if res.TotalScans != 10 || res.ScanThroughput != 10 {
		t.Fatalf("scan throughput wrong: %+v", res)
	}
	if res.ScanKeysMean != 50 {
		t.Fatalf("ScanKeysMean = %v, want 50", res.ScanKeysMean)
	}
	if res.ScanMeanNs != 2e6 || res.ScanMaxNs != 5e6 {
		t.Fatalf("scan latency buckets wrong: mean %v max %v", res.ScanMeanNs, res.ScanMaxNs)
	}
	if res.ScanRetryFrac != 0.3 {
		t.Fatalf("ScanRetryFrac = %v, want 0.3", res.ScanRetryFrac)
	}
	// A scanless thread reports zero scan metrics, not NaNs.
	res = summarize(cfg, []stats.Thread{{Ops: 10, ActiveNs: 1e9}}, nil)
	if res.TotalScans != 0 || res.ScanThroughput != 0 || res.ScanKeysMean != 0 || res.ScanMeanNs != 0 {
		t.Fatalf("scanless run leaked scan metrics: %+v", res)
	}
}

// TestPageMetricsBuckets pins the cursor metric plumbing
// deterministically, like TestScanMetricsBuckets: hand-crafted page
// counters must land in the page-specific Result fields and pollute
// neither the point-op nor the one-shot-scan fields.
func TestPageMetricsBuckets(t *testing.T) {
	cfg := quick("list/lazy")
	cfg.Threads = 1
	ths := []stats.Thread{{
		Ops:      1000,
		Reads:    1000,
		ActiveNs: 1e9, // 1 s window
		// 4 paginated iterations totalling 20 pages, 8 keys each,
		// 1ms each, worst 3ms, 5 retries total.
		Pages:         20,
		PageKeys:      160,
		PageNs:        20e6,
		MaxPageNs:     3e6,
		CursorScans:   4,
		CursorRetries: 5,
		// 3 pulls per page materializing 12 keys per page (a 1.5x
		// overcollect over the 8 delivered).
		PagePulls:    60,
		PagePullKeys: 240,
	}}
	res := summarize(cfg, ths, nil)
	if res.TotalOps != 1000 || res.Throughput != 1000 {
		t.Fatalf("point-op throughput polluted by pages: ops=%d thr=%v", res.TotalOps, res.Throughput)
	}
	if res.TotalScans != 0 || res.ScanThroughput != 0 {
		t.Fatalf("one-shot scan metrics polluted by pages: %+v", res)
	}
	if res.TotalPages != 20 || res.PageThroughput != 20 || res.TotalCursors != 4 {
		t.Fatalf("page throughput wrong: %+v", res)
	}
	if res.PageKeysMean != 8 {
		t.Fatalf("PageKeysMean = %v, want 8", res.PageKeysMean)
	}
	if res.PageMeanNs != 1e6 || res.PageMaxNs != 3e6 {
		t.Fatalf("page latency buckets wrong: mean %v max %v", res.PageMeanNs, res.PageMaxNs)
	}
	if res.CursorRetryFrac != 0.25 {
		t.Fatalf("CursorRetryFrac = %v, want 0.25", res.CursorRetryFrac)
	}
	if res.PagePullsMean != 3 || res.PagePullKeysMean != 12 {
		t.Fatalf("page pull means wrong: pulls %v keys %v, want 3 and 12",
			res.PagePullsMean, res.PagePullKeysMean)
	}
	// A cursorless thread reports zero page metrics, not NaNs.
	res = summarize(cfg, []stats.Thread{{Ops: 10, ActiveNs: 1e9}}, nil)
	if res.TotalPages != 0 || res.PageThroughput != 0 || res.PageKeysMean != 0 || res.PageMeanNs != 0 || res.PagePullsMean != 0 {
		t.Fatalf("cursorless run leaked page metrics: %+v", res)
	}
}

// TestRunCursorWorkload drives a real single-worker cursor mix end to
// end (60ms window: comfortably above 1-CPU scheduling noise, like
// TestRunScanWorkload).
func TestRunCursorWorkload(t *testing.T) {
	cfg := Config{
		Algorithm: "striped(4,list/lazy)",
		Threads:   1,
		Duration:  60 * time.Millisecond,
		Workload: workload.Config{
			Size: 256, UpdateRatio: 0.2, CursorRatio: 0.2,
			ScanLen: 64, PageLen: 8,
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPages == 0 || res.PageThroughput <= 0 || res.TotalCursors == 0 {
		t.Fatalf("cursor mix produced no pages: %+v", res)
	}
	if res.TotalPages < res.TotalCursors {
		t.Fatalf("fewer pages than iterations: %+v", res)
	}
	if res.TotalOps == 0 || res.Throughput <= 0 {
		t.Fatalf("cursor mix starved point ops: %+v", res)
	}
	if res.PageKeysMean <= 0 {
		t.Fatalf("pages delivered no keys on a half-full structure: %+v", res)
	}
	if res.PageMeanNs <= 0 || res.PageMaxNs < uint64(res.PageMeanNs) {
		t.Fatalf("page latencies inconsistent: mean %v max %v", res.PageMeanNs, res.PageMaxNs)
	}
	if res.TotalScans != 0 {
		t.Fatalf("cursor mix leaked one-shot scans: %+v", res)
	}
}

// TestCursorWorkloadChecksSupport: a CursorRatio against a structure is
// validated before workers start. Every registered structure implements
// core.Cursor, so the success path goes through Run and the rejection
// path drives runOnce directly with a set whose Cursor is hidden.
func TestCursorWorkloadChecksSupport(t *testing.T) {
	cfg := quick("bst/tk")
	cfg.Workload.CursorRatio = 0.1
	if _, err := Run(cfg); err != nil {
		t.Fatalf("bst/tk implements Cursor but Run rejected the cursor mix: %v", err)
	}
	// noCursor embeds the plain Set interface, so only Get/Put/Remove/Len
	// promote: the core.Cursor assertion on it fails even though the
	// wrapped structure paginates fine.
	cfg = cfg.withDefaults()
	newSet, err := core.NewFactory("list/lazy")
	if err != nil {
		t.Fatal(err)
	}
	_, err = runOnce(cfg, func(o core.Options) core.Set {
		return noCursor{newSet(o)}
	}, 0)
	if err == nil || !strings.Contains(err.Error(), "core.Cursor") {
		t.Fatalf("cursor mix on a cursorless set: err = %v, want a core.Cursor support error", err)
	}
}

// noCursor hides every optional extension of the wrapped set (interface
// embedding promotes only Set's own methods).
type noCursor struct{ core.Set }

// TestRunScanWorkload drives a real single-worker scan mix end to end.
// The worker run is the only timing-dependent part, so it gets a window
// comfortably above the 1-CPU host's scheduling noise.
func TestRunScanWorkload(t *testing.T) {
	cfg := Config{
		Algorithm: "striped(4,list/lazy)",
		Threads:   1,
		Duration:  60 * time.Millisecond,
		Workload:  workload.Config{Size: 256, UpdateRatio: 0.2, ScanRatio: 0.2, ScanLen: 32},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalScans == 0 || res.ScanThroughput <= 0 {
		t.Fatalf("scan mix produced no scans: %+v", res)
	}
	if res.TotalOps == 0 || res.Throughput <= 0 {
		t.Fatalf("scan mix starved point ops: %+v", res)
	}
	if res.ScanKeysMean <= 0 {
		t.Fatalf("scans returned no keys on a half-full structure: %+v", res)
	}
	if res.ScanMeanNs <= 0 || res.ScanMaxNs < uint64(res.ScanMeanNs) {
		t.Fatalf("scan latencies inconsistent: mean %v max %v", res.ScanMeanNs, res.ScanMaxNs)
	}
}

// TestScanWorkloadNeedsScanner: every registered structure implements
// Scanner, so fabricate the miss with a config error path instead — a
// ScanRatio on a spec is validated before workers start.
func TestScanWorkloadNeedsScanner(t *testing.T) {
	cfg := quick("list/lazy")
	cfg.Workload.ScanRatio = 0.1
	if _, err := Run(cfg); err != nil {
		t.Fatalf("list/lazy implements Scanner but Run rejected the scan mix: %v", err)
	}
}

func TestRunBatchWorkload(t *testing.T) {
	cfg := Config{
		Algorithm: "sharded(8,list/lazy)",
		Threads:   2,
		Duration:  60 * time.Millisecond,
		Workload:  workload.Config{Size: 256, UpdateRatio: 0.2, BatchRatio: 0.3, BatchLen: 16},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBatches == 0 || res.BatchThroughput <= 0 {
		t.Fatalf("batch mix produced no batches: %+v", res)
	}
	if res.TotalOps == 0 || res.Throughput <= 0 {
		t.Fatalf("batch mix starved point ops: %+v", res)
	}
	// Uniform batch lengths with mean 16 land in [1, 31].
	if res.BatchKeysMean < 1 || res.BatchKeysMean > 31 {
		t.Fatalf("batch keys mean %.1f outside the drawn range", res.BatchKeysMean)
	}
	if res.BatchMeanNs <= 0 || res.BatchMaxNs < uint64(res.BatchMeanNs) {
		t.Fatalf("batch latencies inconsistent: mean %v max %v", res.BatchMeanNs, res.BatchMaxNs)
	}
	if res.AllocsPerOp < 0 {
		t.Fatalf("allocs/op negative: %v", res.AllocsPerOp)
	}
}

// TestBatchWorkloadChecksSupport: a BatchRatio on a spec is validated
// before workers start; every registered structure implements Batcher,
// so exercise the accept path and pin the reject message shape against
// the scanner/cursor precedent via a stub-free config check.
func TestBatchWorkloadChecksSupport(t *testing.T) {
	cfg := quick("skiplist/herlihy")
	cfg.Workload.BatchRatio = 0.1
	if _, err := Run(cfg); err != nil {
		t.Fatalf("skiplist/herlihy implements Batcher but Run rejected the batch mix: %v", err)
	}
}

// TestContendedBatchCombines drives a single-shard (maximally contended)
// sharded composite with write batches from several threads and expects
// the flat-combining path to engage: some batches must have traveled the
// publication list. Whether TryAcquire ever fails inside one short
// window is a scheduling accident on a 1-CPU host (the workers can
// serialize perfectly), so the windows retry with growing durations and
// the assertion is that combining engages in ANY of them.
func TestContendedBatchCombines(t *testing.T) {
	var batches, combined uint64
	for attempt := 0; attempt < 5; attempt++ {
		cfg := Config{
			Algorithm: "sharded(1,list/lazy)",
			Threads:   4,
			Duration:  time.Duration(1+attempt) * 80 * time.Millisecond,
			Workload:  workload.Config{Size: 128, UpdateRatio: 0.8, BatchRatio: 0.8, BatchLen: 8},
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batches += res.TotalBatches
		combined += res.CombinedBatches
		if batches > 0 && combined > 0 {
			return
		}
	}
	if batches == 0 {
		t.Fatal("contended cell issued no batches across every window")
	}
	t.Fatalf("flat combining never engaged on a contended single shard: %d batches, %d combined across 5 windows", batches, combined)
}

func TestUnknownAlgorithm(t *testing.T) {
	_, err := Run(Config{Algorithm: "nope/nope"})
	if err == nil {
		t.Fatal("unknown algorithm did not error")
	}
	if !strings.Contains(err.Error(), "unknown algorithm") ||
		!strings.Contains(err.Error(), "list/lazy") {
		t.Fatalf("error not actionable (should name the problem and list registered algorithms): %v", err)
	}
	if _, err := Run(Config{Algorithm: "sharded(16"}); err == nil {
		t.Fatal("malformed composite spec did not error")
	}
	if _, err := Run(Config{Algorithm: "nocomb(4,list/lazy)"}); err == nil {
		t.Fatal("unknown combinator did not error")
	}
}

// TestCompositeRun drives composite specifications through the full
// harness path and checks the metric set matches a plain algorithm's:
// per-shard lock stats must aggregate into the same per-thread slots.
func TestCompositeRun(t *testing.T) {
	for _, alg := range []string{
		"sharded(16,list/lazy)",
		"striped(8,skiplist/herlihy)",
		"readcache(1024,bst/tk)",
	} {
		cfg := quick(alg)
		cfg.Workload.UpdateRatio = 0.5 // drive the locking write paths
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.TotalOps == 0 || res.Throughput <= 0 {
			t.Fatalf("%s: no throughput measured: %+v", alg, res)
		}
		if res.PerThreadMean <= 0 {
			t.Fatalf("%s: per-thread throughput missing", alg)
		}
		// The blocking leaves take locks on updates; those acquisitions
		// happen inside shard instances and must still reach the
		// harness through the shared Ctx stats (WaitingOpsFrac's
		// denominator). A histogram entry per update op must also flow.
		var histTotal uint64
		for _, b := range res.RestartHist {
			histTotal += b
		}
		if histTotal == 0 {
			t.Fatalf("%s: restart histogram empty — inner metrics not flowing through the composite", alg)
		}
		if res.WaitFraction < 0 || res.WaitFraction > 1 {
			t.Fatalf("%s: WaitFraction out of range: %v", alg, res.WaitFraction)
		}
	}
}

// TestCompositeMatchesPlainSemantics runs the same seeded workload cell
// against a plain and a sharded lazy list; both must complete and produce
// comparable op totals (sharding must not distort the harness plumbing).
func TestCompositeMatchesPlainSemantics(t *testing.T) {
	plain, err := Run(quick("list/lazy"))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(quick("sharded(4,list/lazy)"))
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalOps == 0 || sharded.TotalOps == 0 {
		t.Fatalf("ops missing: plain %d sharded %d", plain.TotalOps, sharded.TotalOps)
	}
}

func TestAllFeaturedRun(t *testing.T) {
	for _, alg := range []string{"list/lazy", "skiplist/herlihy", "hashtable/lazy", "bst/tk"} {
		res, err := Run(quick(alg))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.TotalOps == 0 {
			t.Fatalf("%s: no ops", alg)
		}
	}
}

func TestNonBlockingRun(t *testing.T) {
	for _, alg := range []string{"list/harris", "list/waitfree"} {
		res, err := Run(quick(alg))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.TotalOps == 0 {
			t.Fatalf("%s: no ops", alg)
		}
		if res.WaitFraction != 0 {
			t.Fatalf("%s: non-blocking algorithm reported lock waits", alg)
		}
	}
}

func TestElidedRun(t *testing.T) {
	cfg := quick("hashtable/lazy")
	cfg.ElideAttempts = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps == 0 {
		t.Fatal("no ops under elision")
	}
	// With elision, critical sections are transactional: commits+fallbacks
	// must roughly cover the updates that wrote.
	if res.FallbackFrac < 0 || res.FallbackFrac > 1 {
		t.Fatalf("FallbackFrac out of range: %v", res.FallbackFrac)
	}
}

func TestEBRRun(t *testing.T) {
	cfg := quick("list/lazy")
	cfg.UseEBR = true
	cfg.Workload.UpdateRatio = 0.5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired == 0 {
		t.Fatal("EBR run retired nothing despite 50% updates")
	}
	if res.Reclaimed > res.Retired {
		t.Fatalf("reclaimed %d > retired %d", res.Reclaimed, res.Retired)
	}
}

// runUntil runs cfg, doubling its window while enough reports false: a
// fault firing once in N draws needs a few N draws, which a loaded or
// race-instrumented host may not reach in the first window. A one-second
// window that is still not enough fails the test.
func runUntil(t *testing.T, cfg Config, enough func(Result) bool) Result {
	t.Helper()
	for {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if enough(res) {
			return res
		}
		if cfg.Duration >= time.Second {
			t.Fatalf("%s under %s: not enough after a %v window (fired %v)", cfg.Algorithm, cfg.Fault, cfg.Duration, res.FaultFires)
		}
		cfg.Duration *= 2
	}
}

// TestDelayedThreadRun runs Figure 9's plan on every featured leaf: each
// leaf's write phase must reach Ctx.InCS, so the victim's cs.delay fires,
// and nothing but cs.delay is drawn.
func TestDelayedThreadRun(t *testing.T) {
	for _, alg := range []string{"list/lazy", "skiplist/herlihy", "hashtable/lazy", "bst/tk"} {
		cfg := quick(alg)
		cfg.Workload.UpdateRatio = 0.5
		cfg.Fault = PaperPlan(fault.PaperVictim, alg)
		res := runUntil(t, cfg, func(r Result) bool { return r.FaultFires[fault.CSDelay] > 0 })
		if res.Faults != res.FaultFires[fault.CSDelay] {
			t.Fatalf("%s: victim plan fired %v, want cs.delay only", alg, res.FaultFires)
		}
	}
}

// tallied wraps a leaf and counts each worker's updates and write phases
// (updates that changed the set), so a test can hold the fault tally
// against one worker's own operations. The pre-fill context carries no
// stats slot and is not counted.
type tallied struct {
	core.Set
	updates, writes [8]atomic.Uint64
}

// lastTallied is the instance the latest Run built.
var lastTallied *tallied

func init() {
	for _, leaf := range []string{"list/lazy", "hashtable/lazy"} {
		f, err := core.NewFactory(leaf)
		if err != nil {
			panic(err)
		}
		core.Register(core.Info{Name: "tallied/" + leaf, New: func(o core.Options) core.Set {
			lastTallied = &tallied{Set: f(o)}
			return lastTallied
		}})
	}
}

func (s *tallied) count(c *core.Ctx, wrote bool) {
	if c.Stats != nil {
		s.updates[c.ID].Add(1)
		if wrote {
			s.writes[c.ID].Add(1)
		}
	}
}

func (s *tallied) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	ok := s.Set.Put(c, k, v)
	s.count(c, ok)
	return ok
}

func (s *tallied) Remove(c *core.Ctx, k core.Key) bool {
	ok := s.Set.Remove(c, k)
	s.count(c, ok)
	return ok
}

// TestFaultPaperVictim holds Figure 9's plan to the paper's adversary:
// only worker 0 is delayed, on every N-th critical section exactly, which
// is one delay per 10 of its updates (±30 %). list/lazy enters its
// critical section only on the ≈ half of updates that write (N = 5);
// hashtable/lazy locks on every update (N = 10, PaperPlan's halving).
func TestFaultPaperVictim(t *testing.T) {
	for _, leaf := range []string{"list/lazy", "hashtable/lazy"} {
		cfg := quick("tallied/" + leaf)
		cfg.Workload.UpdateRatio = 0.5
		cfg.Fault = PaperPlan(fault.PaperVictim, leaf)
		res := runUntil(t, cfg, func(Result) bool { return lastTallied.updates[0].Load() >= 200 })
		fires, updates := res.FaultFires[fault.CSDelay], lastTallied.updates[0].Load()
		phases, every := lastTallied.writes[0].Load(), uint64(5)
		if leaf == "hashtable/lazy" {
			phases, every = updates, 10
		}
		// Exact: every=N counts worker 0's draws; a single firing on any
		// other worker would break the equality.
		if fires != phases/every {
			t.Fatalf("%s: cs.delay fired %d times for worker 0's %d critical sections (every %d): some other worker fired",
				leaf, fires, phases, every)
		}
		if rate := float64(fires) / float64(updates); rate < 0.07 || rate > 0.13 {
			t.Fatalf("%s: %d delays over worker 0's %d updates = %.3f per update, want 0.1 ± 30 %%", leaf, fires, updates, rate)
		}
	}
}

// TestFaultMultiprogram runs Tables 2–3's plan both ways: under elision
// the switches land at the speculative commit point (htm.abort → recorded
// interrupt aborts) and never inside a critical section; under plain
// locks they land inside the write phase (cs.delay) and nothing is
// speculated.
func TestFaultMultiprogram(t *testing.T) {
	for _, elide := range []int{5, 0} {
		cfg := quick("skiplist/herlihy")
		cfg.Workload.UpdateRatio = 1
		cfg.ElideAttempts = elide
		cfg.Fault = PaperPlan(fault.Multiprogram, cfg.Algorithm)
		want := fault.CSDelay
		if elide > 0 {
			want = fault.HTMAbort
		}
		res := runUntil(t, cfg, func(r Result) bool { return r.FaultFires[want] > 0 })
		aborts := res.TxAborts[stats.AbortInterrupt]
		if res.Faults != res.FaultFires[want] || (elide > 0) != (aborts > 0) || (elide > 0 && aborts != res.Faults) {
			t.Fatalf("elide=%d: %d interrupt aborts, fires %v; want %s only, one interrupt abort per htm.abort",
				elide, aborts, res.FaultFires, want)
		}
	}
}

func TestMultipleRunsAverage(t *testing.T) {
	cfg := quick("hashtable/lazy")
	cfg.Runs = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps == 0 {
		t.Fatal("no ops across runs")
	}
}

func TestRestartHistogramSane(t *testing.T) {
	cfg := quick("list/lazy")
	cfg.Workload.Size = 16
	cfg.Workload.UpdateRatio = 0.5
	cfg.Threads = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var histTotal uint64
	for _, b := range res.RestartHist {
		histTotal += b
	}
	// Every update contributes exactly one histogram entry; reads
	// contribute none (lazy list records restarts only on updates).
	if histTotal == 0 {
		t.Fatal("restart histogram empty")
	}
	if histTotal > res.TotalOps {
		t.Fatalf("histogram total %d exceeds ops %d", histTotal, res.TotalOps)
	}
	if res.RestartedFrac < 0 || res.RestartedFrac > 1 {
		t.Fatalf("RestartedFrac out of range: %v", res.RestartedFrac)
	}
	if res.RestartedFrac3 > res.RestartedFrac {
		t.Fatal("RestartedFrac3 exceeds RestartedFrac")
	}
}

// TestResizeScheduleRun drives an explicit resize schedule through a full
// harness run: the width trace must record every step in order and the
// workload must keep flowing throughout.
func TestResizeScheduleRun(t *testing.T) {
	cfg := quick("elastic(1,list/lazy)")
	cfg.Threads = 2
	// Generous margins: under -race on a loaded single-CPU host the
	// controller goroutine can be scheduled tens of milliseconds late.
	cfg.Duration = 400 * time.Millisecond
	cfg.ResizeSteps = []ResizeStep{
		{At: 120 * time.Millisecond, Width: 2}, // deliberately out of order
		{At: 30 * time.Millisecond, Width: 4},
		{At: 220 * time.Millisecond, Width: 2}, // same-width no-op: must not count
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps == 0 {
		t.Fatal("no ops measured during resizing")
	}
	if res.Resizes != 2 {
		t.Fatalf("Resizes = %d, want 2 (the same-width step is a no-op)", res.Resizes)
	}
	if res.FinalWidth != 2 {
		t.Fatalf("FinalWidth = %d, want 2", res.FinalWidth)
	}
	widths := make([]int, 0, len(res.WidthTrace))
	for _, ws := range res.WidthTrace {
		widths = append(widths, ws.Width)
	}
	if len(widths) != 3 || widths[0] != 1 || widths[1] != 4 || widths[2] != 2 {
		t.Fatalf("width trace = %v, want [1 4 2]", widths)
	}
	for i := 1; i < len(res.WidthTrace); i++ {
		if res.WidthTrace[i].AtNs < res.WidthTrace[i-1].AtNs {
			t.Fatalf("width trace timestamps not monotone: %+v", res.WidthTrace)
		}
	}
}

// TestResizeRequiresResizable: a schedule against a non-resizable spec is
// an upfront, actionable error.
func TestResizeRequiresResizable(t *testing.T) {
	cfg := quick("list/lazy")
	cfg.ResizeSteps = []ResizeStep{{At: time.Millisecond, Width: 4}}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "elastic(") {
		t.Fatalf("want an error naming elastic(N,...), got %v", err)
	}
	cfg = quick("sharded(4,list/lazy)")
	cfg.Elastic = &ElasticPolicy{GrowOps: 1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("elastic policy accepted for a static sharded spec")
	}
}

// TestElasticPolicyGrow: with a trigger any throughput exceeds, the
// adaptive controller must ramp the width up to the ceiling.
func TestElasticPolicyGrow(t *testing.T) {
	cfg := quick("elastic(1,list/lazy)")
	cfg.Threads = 2
	cfg.Duration = 400 * time.Millisecond
	cfg.Elastic = &ElasticPolicy{Interval: 10 * time.Millisecond, GrowOps: 1, MaxWidth: 8}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalWidth != 8 {
		t.Fatalf("FinalWidth = %d, want the MaxWidth ceiling 8 (trace %v)", res.FinalWidth, res.WidthTrace)
	}
	if res.Resizes < 3 {
		t.Fatalf("Resizes = %d, want >= 3 (1→2→4→8)", res.Resizes)
	}
}

// TestElasticPolicyShrink: with a shrink floor above any achievable
// throughput, the width must collapse to MinWidth.
func TestElasticPolicyShrink(t *testing.T) {
	cfg := quick("elastic(8,list/lazy)")
	cfg.Threads = 2
	cfg.Duration = 400 * time.Millisecond
	cfg.Elastic = &ElasticPolicy{Interval: 10 * time.Millisecond, ShrinkOps: 1e15}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalWidth != 1 {
		t.Fatalf("FinalWidth = %d, want the MinWidth floor 1 (trace %v)", res.FinalWidth, res.WidthTrace)
	}
}
