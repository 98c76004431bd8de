// Package harness is the measurement engine behind every runtime
// experiment in this repository: it spawns T worker goroutines against one
// data structure instance, runs a timed window, and aggregates the
// coarse-grained (throughput, fairness) and fine-grained (lock waiting,
// restarts, HTM fallbacks) metrics of the paper.
//
// Methodology notes mirroring §3.3:
//   - every worker continuously issues requests drawn from the workload;
//   - the structure is pre-filled to its steady-state size;
//   - results can be averaged over multiple runs (the paper uses 11 runs
//     of 5 s; the defaults here are CI-sized and configurable).
package harness

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csds/internal/core"
	"csds/internal/ebr"
	"csds/internal/fault"
	"csds/internal/stats"
	"csds/internal/workload"
	"csds/internal/xrand"
)

// Config describes one experiment cell.
type Config struct {
	// Algorithm is an algorithm specification: a plain registry name
	// ("list/lazy") or a composite built from structure combinators
	// ("sharded(16,list/lazy)", "readcache(1024,bst/tk)"). Composite
	// instances pass every inner operation through the worker's context,
	// so per-shard lock-wait and restart metrics aggregate into the same
	// per-thread slots a plain run fills.
	Algorithm string
	// Threads is the worker count.
	Threads int
	// Duration is the measured window per run.
	Duration time.Duration
	// Runs averages this many runs (>=1).
	Runs int
	// Workload parameters.
	Workload workload.Config
	// ElideAttempts > 0 enables HTM lock elision.
	ElideAttempts int
	// UseEBR attaches an epoch-based reclamation domain.
	UseEBR bool
	// Seed makes runs reproducible.
	Seed uint64

	// CacheTTL / CacheAdmission configure any readcache combinator in the
	// algorithm spec (passed through core.Options): entry expiry and the
	// admission policy (combinator.AdmitAlways/AdmitTinyLFU/AdmitWindow).
	CacheTTL       time.Duration
	CacheAdmission string

	// Fault, when non-nil, arms the fault plane (internal/fault) for the
	// run: every worker gets a deterministic per-worker injector wired
	// into its context (operation delays, critical-section delays,
	// speculative aborts, forced guard failures, delayed retire
	// callbacks), and — with EBR on — a reclamation antagonist stalls and
	// abandons records for the plan's ebr.* points. The paper's §5.4
	// adversaries are plans too (fault.PaperVictim for Figure 9,
	// fault.Multiprogram for Tables 2–3). Firing counts land in
	// Result.FaultFires.
	Fault *fault.Plan

	// ResizeSteps schedules explicit width changes at fixed offsets into
	// each run. The algorithm must resolve to a core.Resizable composite
	// (wrap any spec in elastic(N,...)).
	ResizeSteps []ResizeStep
	// Elastic, when non-nil, runs the adaptive grow/shrink controller
	// during each run (also requires a core.Resizable algorithm).
	Elastic *ElasticPolicy
}

// ResizeStep is one scheduled width change: at offset At into the run,
// resize the structure to Width shards (the csdsbench -resize-at axis).
type ResizeStep struct {
	At    time.Duration
	Width int
}

// ElasticPolicy is the adaptive resize trigger: a controller samples the
// workers' published counters every Interval and doubles the partition
// width when a shard is running too hot (per-shard throughput above
// GrowOps, or lock-wait fraction above GrowWait), halving it when shards
// run cold (per-shard throughput below ShrinkOps). This gives experiments
// a load-tracking scenario axis: ramp the offered load and watch the
// width follow.
type ElasticPolicy struct {
	// Interval is the sampling cadence (default 25ms).
	Interval time.Duration
	// GrowOps doubles the width when per-shard throughput (ops/s)
	// exceeds it; 0 disables the trigger.
	GrowOps float64
	// ShrinkOps halves the width when per-shard throughput falls below
	// it; 0 disables the trigger.
	ShrinkOps float64
	// GrowWait doubles the width when the fraction of worker time spent
	// waiting for locks exceeds it; 0 disables the trigger.
	GrowWait float64
	// MinWidth / MaxWidth bound the controller (defaults 1 and 64).
	MinWidth, MaxWidth int
}

func (p ElasticPolicy) withDefaults() ElasticPolicy {
	if p.Interval <= 0 {
		p.Interval = 25 * time.Millisecond
	}
	if p.MinWidth < 1 {
		p.MinWidth = 1
	}
	if p.MaxWidth < p.MinWidth {
		p.MaxWidth = 64
		if p.MaxWidth < p.MinWidth {
			p.MaxWidth = p.MinWidth
		}
	}
	return p
}

// WidthSample is one point of the width-over-time trace.
type WidthSample struct {
	AtNs  uint64 // offset into the run
	Width int
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Duration <= 0 {
		c.Duration = 100 * time.Millisecond
	}
	if c.Runs <= 0 {
		c.Runs = 1
	}
	if c.Seed == 0 {
		c.Seed = 0xD1CE
	}
	c.Workload = c.Workload.WithDefaults()
	return c
}

// Result aggregates one experiment cell (averaged over runs).
type Result struct {
	Config Config

	// Coarse-grained. Throughput counts point operations only; range
	// scans are measured apart (below) so a scan-heavy mix never
	// masquerades as point-op speed.
	Throughput      float64 // point operations per second, system-wide
	PerThreadMean   float64 // ops/s per thread
	PerThreadStddev float64 // stddev of per-thread ops/s (fairness, Fig 4)
	TotalOps        uint64

	// Range scans (set when the workload's ScanRatio > 0).
	ScanThroughput float64 // scans per second, system-wide
	TotalScans     uint64
	ScanKeysMean   float64 // mappings returned per scan, averaged
	ScanMeanNs     float64 // mean scan latency
	ScanMaxNs      uint64  // worst single scan
	ScanRetryFrac  float64 // optimistic validation retries per scan

	// Paginated cursor scans (set when the workload's CursorRatio > 0).
	// Pages are measured apart from one-shot scans and from point ops:
	// pages/sec is the serving-rate metric of a pagination workload, and
	// the retry fraction counts resume-validation (and stale-epoch)
	// retries per page.
	PageThroughput  float64 // cursor pages per second, system-wide
	TotalPages      uint64
	TotalCursors    uint64  // full paginated iterations completed
	PageKeysMean    float64 // mappings delivered per page, averaged
	PageMeanNs      float64 // mean page latency
	PageMaxNs       uint64  // worst single page
	CursorRetryFrac float64 // validation/epoch retries per page
	// Refill counters of the streaming page machinery: how much the
	// page collects materialized. PagePullKeysMean / PageKeysMean is
	// the overcollect factor — ~1 on O(page) protocols, k× on an eager
	// k-way merge — so page-cost regressions show in every report.
	PagePullsMean    float64 // bounded per-part pulls per page
	PagePullKeysMean float64 // keys pulled per page (overshoot+retries incl.)

	// Batched operations (set when the workload's BatchRatio > 0).
	// Batches are measured apart from point ops — batches/sec and
	// keys/batch together give the amortized per-key rate, and the
	// combine fraction says how often a batch traveled a shard's
	// flat-combining publication list instead of applying directly.
	BatchThroughput float64 // batches per second, system-wide
	TotalBatches    uint64
	TotalBatchKeys  uint64
	BatchKeysMean   float64 // keys per batch, averaged
	BatchMeanNs     float64 // mean batch latency
	BatchMaxNs      uint64  // worst single batch
	CombineFrac     float64 // fraction of batches applied by a combiner
	CombinedBatches uint64

	// Read-through cache behaviour (set when the spec composes a
	// readcache). The hit fraction is the cache's service rate over point
	// gets; expiries count TTL deaths (entries present but too old to
	// serve); rejects count fills the admission policy refused.
	CacheHits     uint64
	CacheMisses   uint64
	CacheFills    uint64
	CacheExpiries uint64
	CacheRejects  uint64
	CacheHitFrac  float64 // CacheHits / (CacheHits + CacheMisses)

	// AllocsPerOp is the heap-allocation rate: runtime.ReadMemStats
	// Mallocs delta across the run divided by all work units (point ops,
	// batch keys, scans and pages). Averaged over runs.
	AllocsPerOp float64

	// Fine-grained (practical wait-freedom).
	WaitFraction       float64 // fraction of time waiting for locks (Fig 5)
	WaitFractionStddev float64
	RestartedFrac      float64 // ops restarted >= 1 times (Fig 6, 8)
	RestartedFrac3     float64 // ops restarted > 3 times (Fig 8)
	MaxWaitNs          uint64  // worst single lock wait (outliers, §5.1)
	WaitingOpsFrac     float64 // fraction of lock acquisitions that waited

	// Restart histogram, summed over threads (RestartedOps buckets).
	RestartHist [stats.RestartBuckets]uint64

	// HTM elision (Tables 2–3).
	FallbackFrac float64 // critical sections that took the real lock
	TxAborts     [4]uint64

	// EBR bookkeeping and reclamation economics. Retired/Reclaimed are
	// domain totals; PoolHits/PoolMisses count node allocations served
	// from (or missed by) the typed free-lists, and GCPauseNs is the
	// stop-the-world GC pause time that landed inside the measured
	// window (runtime.MemStats PauseTotalNs delta) — the column that
	// shows what real reclamation buys back from the collector.
	Retired, Reclaimed uint64
	PoolHits           uint64
	PoolMisses         uint64
	PoolHitFrac        float64 // PoolHits / (PoolHits + PoolMisses)
	GCPauseNs          uint64

	// Elastic resharding (set when ResizeSteps or an Elastic policy ran).
	Resizes    int           // resizes published, summed over runs
	FinalWidth int           // partition width at the end of the last run
	WidthTrace []WidthSample // width-over-time trace of the last run

	// Fault plane (set when Config.Fault armed a plan): injected-fault
	// firing counts per point, summed over runs, and their total.
	FaultFires map[fault.Point]uint64
	Faults     uint64
}

// Run executes the experiment and averages the runs.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	newSet, err := core.NewFactory(cfg.Algorithm)
	if err != nil {
		return Result{}, fmt.Errorf("harness: %w", err)
	}
	if len(cfg.ResizeSteps) > 0 || cfg.Elastic != nil {
		steps := make([]ResizeStep, len(cfg.ResizeSteps))
		copy(steps, cfg.ResizeSteps)
		sort.Slice(steps, func(i, j int) bool { return steps[i].At < steps[j].At })
		cfg.ResizeSteps = steps
	}
	agg := Result{Config: cfg}
	for r := 0; r < cfg.Runs; r++ {
		res, err := runOnce(cfg, newSet, uint64(r))
		if err != nil {
			return Result{}, err
		}
		agg.accumulate(&res, cfg.Runs)
	}
	return agg, nil
}

// PaperPlan parses one of the paper's §5.4 adversaries (the constants
// fault.PaperVictim and fault.Multiprogram; any other spec that fails to
// parse is a programming error and panics) for algorithm alg. The paper
// fires them per update; the plans draw per write phase (cs.delay) and
// per speculative commit (htm.abort), which list/lazy, skiplist/herlihy
// and bst/tk reach on the ≈ half of updates that write. hashtable/lazy
// takes its bucket lock — and reaches its commit point — before its
// membership check, so on every update: its rates are halved to keep the
// paper's per-update rate.
func PaperPlan(spec, alg string) *fault.Plan {
	p, err := fault.ParsePlan(spec)
	if err != nil {
		panic(err)
	}
	if alg == "hashtable/lazy" {
		for _, pt := range p.Active() {
			r, _ := p.Rule(pt)
			r.Prob /= 2
			r.Every *= 2
			p.Set(pt, r)
		}
	}
	return p
}

// Accumulate folds one run's Result into the receiver as 1/runs of the
// average — the same aggregation Run applies across its own repetitions,
// exported for external drivers (csdsbench -net) that collect runs
// themselves.
func (a *Result) Accumulate(r *Result, runs int) { a.accumulate(r, runs) }

// accumulate folds one run into the average.
func (a *Result) accumulate(r *Result, runs int) {
	f := 1 / float64(runs)
	a.Throughput += r.Throughput * f
	a.PerThreadMean += r.PerThreadMean * f
	a.PerThreadStddev += r.PerThreadStddev * f
	a.TotalOps += r.TotalOps
	a.ScanThroughput += r.ScanThroughput * f
	a.TotalScans += r.TotalScans
	a.ScanKeysMean += r.ScanKeysMean * f
	a.ScanMeanNs += r.ScanMeanNs * f
	if r.ScanMaxNs > a.ScanMaxNs {
		a.ScanMaxNs = r.ScanMaxNs
	}
	a.ScanRetryFrac += r.ScanRetryFrac * f
	a.PageThroughput += r.PageThroughput * f
	a.TotalPages += r.TotalPages
	a.TotalCursors += r.TotalCursors
	a.PageKeysMean += r.PageKeysMean * f
	a.PageMeanNs += r.PageMeanNs * f
	if r.PageMaxNs > a.PageMaxNs {
		a.PageMaxNs = r.PageMaxNs
	}
	a.CursorRetryFrac += r.CursorRetryFrac * f
	a.PagePullsMean += r.PagePullsMean * f
	a.PagePullKeysMean += r.PagePullKeysMean * f
	a.BatchThroughput += r.BatchThroughput * f
	a.TotalBatches += r.TotalBatches
	a.TotalBatchKeys += r.TotalBatchKeys
	a.BatchKeysMean += r.BatchKeysMean * f
	a.BatchMeanNs += r.BatchMeanNs * f
	if r.BatchMaxNs > a.BatchMaxNs {
		a.BatchMaxNs = r.BatchMaxNs
	}
	a.CombineFrac += r.CombineFrac * f
	a.CombinedBatches += r.CombinedBatches
	a.CacheHits += r.CacheHits
	a.CacheMisses += r.CacheMisses
	a.CacheFills += r.CacheFills
	a.CacheExpiries += r.CacheExpiries
	a.CacheRejects += r.CacheRejects
	if lookups := a.CacheHits + a.CacheMisses; lookups > 0 {
		a.CacheHitFrac = float64(a.CacheHits) / float64(lookups)
	}
	a.AllocsPerOp += r.AllocsPerOp * f
	a.WaitFraction += r.WaitFraction * f
	a.WaitFractionStddev += r.WaitFractionStddev * f
	a.RestartedFrac += r.RestartedFrac * f
	a.RestartedFrac3 += r.RestartedFrac3 * f
	if r.MaxWaitNs > a.MaxWaitNs {
		a.MaxWaitNs = r.MaxWaitNs
	}
	a.WaitingOpsFrac += r.WaitingOpsFrac * f
	for i := range a.RestartHist {
		a.RestartHist[i] += r.RestartHist[i]
	}
	a.FallbackFrac += r.FallbackFrac * f
	for i := range a.TxAborts {
		a.TxAborts[i] += r.TxAborts[i]
	}
	a.Retired += r.Retired
	a.Reclaimed += r.Reclaimed
	a.PoolHits += r.PoolHits
	a.PoolMisses += r.PoolMisses
	if draws := a.PoolHits + a.PoolMisses; draws > 0 {
		a.PoolHitFrac = float64(a.PoolHits) / float64(draws)
	}
	a.GCPauseNs += r.GCPauseNs
	a.Resizes += r.Resizes
	a.FinalWidth = r.FinalWidth
	if r.WidthTrace != nil {
		a.WidthTrace = r.WidthTrace
	}
	for pt, n := range r.FaultFires {
		if a.FaultFires == nil {
			a.FaultFires = make(map[fault.Point]uint64)
		}
		a.FaultFires[pt] += n
	}
	a.Faults += r.Faults
}

func runOnce(cfg Config, newSet func(core.Options) core.Set, round uint64) (Result, error) {
	opts := core.Options{
		ElideAttempts: cfg.ElideAttempts,
		ExpectedSize:  cfg.Workload.Size,
		// Workload keys are drawn from [1, KeySpace]; range-partitioning
		// combinators split exactly that domain.
		KeySpan:        core.Key(cfg.Workload.KeySpace) + 1,
		CacheTTL:       cfg.CacheTTL,
		CacheAdmission: cfg.CacheAdmission,
	}
	var dom *ebr.Domain
	if cfg.UseEBR {
		dom = ebr.NewDomain()
		opts.Domain = dom
	}
	s := newSet(opts)
	gen := workload.NewGenerator(cfg.Workload)

	// Pre-fill from a setup context.
	setup := &core.Ctx{ID: 0, Rng: xrand.New(cfg.Seed)}
	gen.Fill(setup, s)

	rz, _ := s.(core.Resizable)
	runCtrl := len(cfg.ResizeSteps) > 0 || cfg.Elastic != nil
	if runCtrl && rz == nil {
		return Result{}, fmt.Errorf("harness: algorithm %q is not resizable; wrap the spec in elastic(N,...) to use resize schedules or elastic policies", cfg.Algorithm)
	}
	var scanner core.Scanner
	if cfg.Workload.ScanRatio > 0 {
		sc, ok := s.(core.Scanner)
		if !ok {
			return Result{}, fmt.Errorf("harness: algorithm %q does not implement core.Scanner; a workload with ScanRatio > 0 needs range-scan support", cfg.Algorithm)
		}
		scanner = sc
	}
	var cursor core.Cursor
	if cfg.Workload.CursorRatio > 0 {
		cu, ok := s.(core.Cursor)
		if !ok {
			return Result{}, fmt.Errorf("harness: algorithm %q does not implement core.Cursor; a workload with CursorRatio > 0 needs paginated-scan support", cfg.Algorithm)
		}
		cursor = cu
	}
	var batcher core.Batcher
	if cfg.Workload.BatchRatio > 0 {
		ba, ok := s.(core.Batcher)
		if !ok {
			return Result{}, fmt.Errorf("harness: algorithm %q does not implement core.Batcher; a workload with BatchRatio > 0 needs batched-operation support", cfg.Algorithm)
		}
		batcher = ba
	}
	var live []liveCell
	if runCtrl && cfg.Elastic != nil {
		live = make([]liveCell, cfg.Threads)
	}

	ths := make([]stats.Thread, cfg.Threads)
	var stop atomic.Bool
	var start sync.WaitGroup
	var done sync.WaitGroup
	startGate := make(chan struct{})

	var tally *fault.Tally
	if cfg.Fault != nil {
		tally = fault.NewTally()
	}

	for w := 0; w < cfg.Threads; w++ {
		start.Add(1)
		done.Add(1)
		go func(w int) {
			defer done.Done()
			rng := xrand.New(cfg.Seed ^ (uint64(w)+1)*0x9e3779b97f4a7c15 ^ round<<32)
			c := &core.Ctx{ID: w, Rng: rng, Stats: &ths[w], Fault: fault.NewInjector(cfg.Fault, uint64(w), tally)}
			if dom != nil {
				c.Epoch = dom.Register()
				// Deferred, not tail-called: a worker that panics (or
				// returns early) mid-bracket would otherwise leave its
				// record registered at a stale epoch and wedge advancement
				// for the whole domain. Unregister force-exits any open
				// bracket, flushes limbo already past its grace period,
				// and orphans the rest to the domain, so the snapshot of
				// the lifetime reclaim counter comes after it runs.
				defer func() {
					c.Epoch.Unregister()
					ths[w].Reclaims = c.Epoch.Reclaimed
				}()
			}
			// Reusable batch buffers: grown to the largest batch drawn so
			// far and refilled in place, so steady-state batch issue costs
			// zero allocations in the measurement loop.
			var keyBuf []core.Key
			var pairBuf []core.KV

			start.Done()
			<-startGate
			t0 := time.Now()
			// Phase-based dynamics (flash crowds, drift, diurnal think
			// time): the phase — elapsed fraction of the window — is
			// resampled every 64 ops, and only for dynamic workloads, so
			// the steady-state loop stays clock-free. Static workloads
			// keep phase 0, where KeyAt is bit-identical to Key.
			dynamic := gen.Dynamic()
			durNs := float64(cfg.Duration)
			var phase float64
			var opsSince uint
			for !stop.Load() {
				if dynamic {
					if opsSince&63 == 0 {
						phase = float64(time.Since(t0)) / durNs
						phase -= math.Floor(phase)
					}
					opsSince++
				}
				op := gen.NextOp(rng)
				k := gen.KeyAt(rng, phase)
				switch op {
				case workload.OpGet:
					_, hit := s.Get(c, k)
					c.Stats.RecordRead(hit)
				case workload.OpPut:
					ok := s.Put(c, k, core.Value(k))
					c.Stats.RecordInsert(ok)
				case workload.OpRemove:
					ok := s.Remove(c, k)
					c.Stats.RecordRemove(ok)
				case workload.OpScan:
					// Scans time themselves (the only per-op clock reads in
					// the loop — scans are orders of magnitude rarer and
					// longer than point ops, so the paper's no-clock-on-the-
					// fast-path methodology is preserved) and record into
					// their own counters, never into Ops.
					lo, hi := gen.ScanRangeAt(rng, phase)
					keys := 0
					scanStart := time.Now()
					scanner.Scan(c, lo, hi, func(core.Key, core.Value) bool {
						keys++
						return true
					})
					c.Stats.RecordScan(keys, uint64(time.Since(scanStart)))
				case workload.OpCursorScan:
					// One paginated iteration: page through the window
					// with page sizes drawn from the page-size
					// distribution. Each page is timed and recorded on
					// its own (pages/sec is the serving-rate metric);
					// like scans, nothing here touches Ops. The raw
					// CursorNext interface is used directly — the wire
					// token costs an encode/decode per page and belongs
					// to service boundaries, not the measurement loop.
					lo, hi := gen.ScanRangeAt(rng, phase)
					pos := lo
					for done := false; !done; {
						keys := 0
						pageStart := time.Now()
						pos, done = cursor.CursorNext(c, pos, hi, int(gen.PageLen(rng)), func(core.Key, core.Value) bool {
							keys++
							return true
						})
						c.Stats.RecordPage(keys, uint64(time.Since(pageStart)))
					}
					c.Stats.RecordCursorScan()
				case workload.OpMultiGet, workload.OpMultiPut, workload.OpMultiRemove:
					// One batched call: BatchLen keys drawn from the key
					// popularity distribution (duplicates allowed — the
					// Batcher contract resolves them in index order). Like
					// scans, batches time themselves and record into their
					// own counters, never into Ops.
					n := int(gen.BatchLen(rng))
					switch op {
					case workload.OpMultiGet:
						keyBuf = keyBuf[:0]
						for i := 0; i < n; i++ {
							keyBuf = append(keyBuf, gen.KeyAt(rng, phase))
						}
						batchStart := time.Now()
						batcher.MultiGet(c, keyBuf, func(int, core.Value, bool) {})
						c.Stats.RecordBatch(n, uint64(time.Since(batchStart)))
					case workload.OpMultiPut:
						pairBuf = pairBuf[:0]
						for i := 0; i < n; i++ {
							bk := gen.KeyAt(rng, phase)
							pairBuf = append(pairBuf, core.KV{K: bk, V: core.Value(bk)})
						}
						batchStart := time.Now()
						batcher.MultiPut(c, pairBuf, func(int, bool) {})
						c.Stats.RecordBatch(n, uint64(time.Since(batchStart)))
					default: // workload.OpMultiRemove
						keyBuf = keyBuf[:0]
						for i := 0; i < n; i++ {
							keyBuf = append(keyBuf, gen.KeyAt(rng, phase))
						}
						batchStart := time.Now()
						batcher.MultiRemove(c, keyBuf, func(int, bool) {})
						c.Stats.RecordBatch(n, uint64(time.Since(batchStart)))
					}
				}
				if live != nil && c.Stats.Ops&(liveEvery-1) == 0 {
					// Publish a snapshot of the thread's plain counters so
					// the elastic controller can sample mid-run without a
					// data race. Occasional atomic stores to a private
					// cache line: no shared RMW traffic on the hot path.
					live[w].ops.Store(c.Stats.Ops)
					live[w].waitNs.Store(c.Stats.LockWaitNs)
				}
				if dynamic {
					// Diurnal ramp: the closed loop throttles itself with a
					// phase-dependent think time (zero for non-diurnal mixes).
					if tn := gen.ThinkNsAt(phase); tn > 0 {
						time.Sleep(time.Duration(tn))
					}
				}
				c.Fault.Delay(fault.OpDelay)
			}
			ths[w].ActiveNs = uint64(time.Since(t0))
		}(w)
	}

	// The EBR antagonist: with a fault plan scheduling ebr.* points and
	// reclamation on, a dedicated goroutine stalls inside epoch brackets
	// (holding the global epoch back while workers retire into limbo) and
	// abandons records active-without-exit, exercising Unregister's
	// force-exit and the server watchdog's failure model. It uses
	// throwaway records so worker reclamation stays untouched, and the
	// worker stream space continues past the workers (stream cfg.Threads).
	var antWg sync.WaitGroup
	if dom != nil && cfg.Fault != nil &&
		(cfg.Fault.Enabled(fault.EBRStall) || cfg.Fault.Enabled(fault.EBRAbandon)) {
		antIn := fault.NewInjector(cfg.Fault, uint64(cfg.Threads), tally)
		antWg.Add(1)
		go func() {
			defer antWg.Done()
			<-startGate
			for !stop.Load() {
				if antIn.Fire(fault.EBRStall) {
					r := dom.Register()
					r.Enter()
					fault.Spin(antIn.Duration(fault.EBRStall))
					r.Exit()
					r.Unregister()
				}
				if antIn.Fire(fault.EBRAbandon) {
					r := dom.Register()
					r.Enter()
					// No Exit: the panicking-worker shape.
					r.Unregister()
				}
				runtime.Gosched()
			}
		}()
	}

	var ctrlWg sync.WaitGroup
	var trace []WidthSample
	resizes := 0
	if runCtrl {
		ctrlWg.Add(1)
		go func() {
			defer ctrlWg.Done()
			// The controller gets its own context and stats slot: shard
			// migration is an administrative cost, not workload ops, so it
			// stays out of the per-thread metrics.
			cc := &core.Ctx{ID: cfg.Threads, Rng: xrand.New(cfg.Seed ^ 0xE1A57C), Stats: &stats.Thread{}}
			if dom != nil {
				// The controller retires superseded shard maps through
				// its own record (eager resize reclamation).
				cc.Epoch = dom.Register()
				defer cc.Epoch.Unregister()
			}
			<-startGate
			t0 := time.Now()
			width := rz.Width()
			trace = append(trace, WidthSample{AtNs: 0, Width: width})
			publish := func() {
				resizes++
				width = rz.Width()
				trace = append(trace, WidthSample{AtNs: uint64(time.Since(t0)), Width: width})
			}
			var pol ElasticPolicy
			if cfg.Elastic != nil {
				pol = cfg.Elastic.withDefaults()
			}
			nextSample := pol.Interval
			var lastOps, lastWaitNs uint64
			var lastAt time.Duration
			idx := 0
			for !stop.Load() {
				now := time.Since(t0)
				for idx < len(cfg.ResizeSteps) && now >= cfg.ResizeSteps[idx].At {
					// A same-width step is a no-op (no epoch swap); count
					// only resizes that actually changed the partition.
					if rz.Resize(cc, cfg.ResizeSteps[idx].Width) == nil && rz.Width() != width {
						publish()
					}
					idx++
				}
				if cfg.Elastic != nil && now >= nextSample {
					var ops, waitNs uint64
					for i := range live {
						ops += live[i].ops.Load()
						waitNs += live[i].waitNs.Load()
					}
					if dt := now - lastAt; dt > 0 {
						perShard := float64(ops-lastOps) / dt.Seconds() / float64(width)
						waitFrac := float64(waitNs-lastWaitNs) / (float64(dt) * float64(cfg.Threads))
						target := width
						switch {
						case (pol.GrowOps > 0 && perShard > pol.GrowOps) ||
							(pol.GrowWait > 0 && waitFrac > pol.GrowWait):
							target = width * 2
						case pol.ShrinkOps > 0 && perShard < pol.ShrinkOps:
							target = width / 2
						}
						if target < pol.MinWidth {
							target = pol.MinWidth
						}
						if target > pol.MaxWidth {
							target = pol.MaxWidth
						}
						if target != width && rz.Resize(cc, target) == nil && rz.Width() != width {
							publish()
						}
					}
					lastOps, lastWaitNs, lastAt = ops, waitNs, now
					nextSample = now + pol.Interval
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}

	start.Wait()
	// Allocation accounting brackets the measured window with
	// ReadMemStats (a brief stop-the-world each, outside the window's
	// hot loop on both sides). The Mallocs delta over all work units is
	// the report's allocs/op.
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	close(startGate)
	time.Sleep(cfg.Duration)
	stop.Store(true)
	done.Wait()
	antWg.Wait()
	ctrlWg.Wait()
	if dom != nil {
		// Quiesced drain: every record has unregistered, so each advance
		// succeeds and ages the orphaned limbo out of its grace period —
		// end-of-run bookkeeping should show reclaimed ~= retired, not a
		// pile of nodes stranded one epoch short.
		dom.Advance()
		dom.Advance()
		dom.Advance()
	}
	runtime.ReadMemStats(&mem1)

	res := summarize(cfg, ths, dom)
	if units := res.TotalOps + res.TotalBatchKeys + res.TotalScans + res.TotalPages; units > 0 {
		res.AllocsPerOp = float64(mem1.Mallocs-mem0.Mallocs) / float64(units)
	}
	res.GCPauseNs = mem1.PauseTotalNs - mem0.PauseTotalNs
	if runCtrl {
		res.Resizes = resizes
		res.FinalWidth = rz.Width()
		res.WidthTrace = trace
	}
	if tally != nil {
		res.FaultFires = tally.Snapshot()
		res.Faults = tally.Total()
	}
	return res, nil
}

// liveEvery is the op cadence at which workers publish counter snapshots
// for the elastic controller (power of two so the check is one AND).
const liveEvery = 256

// liveCell is one worker's published snapshot, padded to its own cache
// line so neighbours' stores do not interfere.
type liveCell struct {
	ops    atomic.Uint64
	waitNs atomic.Uint64
	_      [48]byte
}

// SummarizeThreads folds externally collected per-worker counters into a
// Result exactly the way Run does for its own workers. csdsbench's
// networked mode uses it: the closed-loop client threads fill
// stats.Thread slots while driving a remote csdsd, then reuse the whole
// local reporting path (throughput, wait fractions, scan/batch rates).
func SummarizeThreads(cfg Config, ths []stats.Thread) Result {
	return summarize(cfg.withDefaults(), ths, nil)
}

func summarize(cfg Config, ths []stats.Thread, dom *ebr.Domain) Result {
	res := Result{Config: cfg}
	perThread := make([]float64, len(ths))
	waitFracs := make([]float64, len(ths))
	var totalOps, totalWaits, totalAcqs uint64
	var txCommits, txFallbacks uint64
	for i := range ths {
		t := &ths[i]
		secs := float64(t.ActiveNs) / 1e9
		if secs > 0 {
			perThread[i] = float64(t.Ops) / secs
		}
		waitFracs[i] = t.WaitFraction()
		totalOps += t.Ops
		totalWaits += t.LockWaits
		totalAcqs += t.LockAcqs
		if t.MaxWaitNs > res.MaxWaitNs {
			res.MaxWaitNs = t.MaxWaitNs
		}
		for b := range t.RestartedOps {
			res.RestartHist[b] += t.RestartedOps[b]
		}
		txCommits += t.TxCommits
		txFallbacks += t.TxFallbacks
		for a := range t.TxAborts {
			res.TxAborts[a] += t.TxAborts[a]
		}
	}
	res.TotalOps = totalOps
	res.PerThreadMean = stats.Mean(perThread)
	res.PerThreadStddev = stats.Stddev(perThread)
	res.Throughput = res.PerThreadMean * float64(len(ths))
	var totalScans, scanKeys, scanNs, scanRetries uint64
	scanRates := make([]float64, 0, len(ths))
	for i := range ths {
		t := &ths[i]
		totalScans += t.Scans
		scanKeys += t.ScanKeys
		scanNs += t.ScanNs
		scanRetries += t.ScanRetries
		if t.MaxScanNs > res.ScanMaxNs {
			res.ScanMaxNs = t.MaxScanNs
		}
		if secs := float64(t.ActiveNs) / 1e9; secs > 0 {
			scanRates = append(scanRates, float64(t.Scans)/secs)
		}
	}
	res.TotalScans = totalScans
	if totalScans > 0 {
		res.ScanThroughput = stats.Mean(scanRates) * float64(len(ths))
		res.ScanKeysMean = float64(scanKeys) / float64(totalScans)
		res.ScanMeanNs = float64(scanNs) / float64(totalScans)
		res.ScanRetryFrac = float64(scanRetries) / float64(totalScans)
	}
	var totalPages, pageKeys, pageNs, cursorRetries, totalCursors uint64
	var pagePulls, pagePullKeys uint64
	pageRates := make([]float64, 0, len(ths))
	for i := range ths {
		t := &ths[i]
		totalPages += t.Pages
		pageKeys += t.PageKeys
		pageNs += t.PageNs
		cursorRetries += t.CursorRetries
		totalCursors += t.CursorScans
		pagePulls += t.PagePulls
		pagePullKeys += t.PagePullKeys
		if t.MaxPageNs > res.PageMaxNs {
			res.PageMaxNs = t.MaxPageNs
		}
		if secs := float64(t.ActiveNs) / 1e9; secs > 0 {
			pageRates = append(pageRates, float64(t.Pages)/secs)
		}
	}
	res.TotalPages = totalPages
	res.TotalCursors = totalCursors
	if totalPages > 0 {
		res.PageThroughput = stats.Mean(pageRates) * float64(len(ths))
		res.PageKeysMean = float64(pageKeys) / float64(totalPages)
		res.PageMeanNs = float64(pageNs) / float64(totalPages)
		res.CursorRetryFrac = float64(cursorRetries) / float64(totalPages)
		res.PagePullsMean = float64(pagePulls) / float64(totalPages)
		res.PagePullKeysMean = float64(pagePullKeys) / float64(totalPages)
	}
	var totalBatches, batchKeys, batchNs, combined uint64
	batchRates := make([]float64, 0, len(ths))
	for i := range ths {
		t := &ths[i]
		totalBatches += t.Batches
		batchKeys += t.BatchKeys
		batchNs += t.BatchNs
		combined += t.CombinedBatches
		if t.MaxBatchNs > res.BatchMaxNs {
			res.BatchMaxNs = t.MaxBatchNs
		}
		if secs := float64(t.ActiveNs) / 1e9; secs > 0 {
			batchRates = append(batchRates, float64(t.Batches)/secs)
		}
	}
	res.TotalBatches = totalBatches
	res.TotalBatchKeys = batchKeys
	res.CombinedBatches = combined
	if totalBatches > 0 {
		res.BatchThroughput = stats.Mean(batchRates) * float64(len(ths))
		res.BatchKeysMean = float64(batchKeys) / float64(totalBatches)
		res.BatchMeanNs = float64(batchNs) / float64(totalBatches)
		res.CombineFrac = float64(combined) / float64(totalBatches)
	}
	res.WaitFraction = stats.Mean(waitFracs)
	res.WaitFractionStddev = stats.Stddev(waitFracs)
	if totalOps > 0 {
		var atLeast1, moreThan3 uint64
		for b := 1; b < stats.RestartBuckets; b++ {
			atLeast1 += res.RestartHist[b]
			if b > 3 {
				moreThan3 += res.RestartHist[b]
			}
		}
		res.RestartedFrac = float64(atLeast1) / float64(totalOps)
		res.RestartedFrac3 = float64(moreThan3) / float64(totalOps)
	}
	if totalAcqs > 0 {
		res.WaitingOpsFrac = float64(totalWaits) / float64(totalAcqs)
	}
	if cs := txCommits + txFallbacks; cs > 0 {
		res.FallbackFrac = float64(txFallbacks) / float64(cs)
	}
	if dom != nil {
		res.Retired, res.Reclaimed = dom.Stats()
	}
	var hits, misses uint64
	for i := range ths {
		hits += ths[i].PoolHits
		misses += ths[i].PoolMisses
	}
	res.PoolHits, res.PoolMisses = hits, misses
	if draws := hits + misses; draws > 0 {
		res.PoolHitFrac = float64(hits) / float64(draws)
	}
	for i := range ths {
		t := &ths[i]
		res.CacheHits += t.CacheHits
		res.CacheMisses += t.CacheMisses
		res.CacheFills += t.CacheFills
		res.CacheExpiries += t.CacheExpiries
		res.CacheRejects += t.CacheRejects
	}
	if lookups := res.CacheHits + res.CacheMisses; lookups > 0 {
		res.CacheHitFrac = float64(res.CacheHits) / float64(lookups)
	}
	return res
}
