// Command csdsbench runs a single experiment cell of the measurement
// harness against any registered algorithm and prints every metric the
// paper reports as one plain-text table — the interactive front end;
// numbers that back a claim come from the repository benchmark (bench/).
//
// The -alg flag accepts composite specifications built from structure
// combinators as well as plain registry names. Elastic composites
// (elastic(N,spec)) additionally accept a resize schedule (-resize-at)
// and an adaptive grow/shrink policy (-elastic-grow / -elastic-shrink /
// -elastic-growwait); the report then includes the width-over-time trace.
//
// Examples:
//
//	csdsbench -alg list/lazy -threads 20 -size 2048 -updates 0.1 -dur 5s -runs 11
//	csdsbench -alg 'sharded(16,list/lazy)' -threads 20 -zipf 0.8
//	csdsbench -alg 'striped(8,skiplist/herlihy)' -scan-frac 0.2 -scan-len 128
//	csdsbench -alg 'sharded(8,list/lazy)' -cursor-frac 0.1 -page-len 50
//	csdsbench -alg 'elastic(1,list/lazy)' -resize-at '100ms:8,300ms:2'
//	csdsbench -alg 'elastic(1,list/lazy)' -elastic-growwait 0.05 -elastic-max 32
//	csdsbench -alg hashtable/lazy -elide 5 -threads 32
//	csdsbench -alg list/lazy -fault 'cs.delay:every=5,min=1us,max=100us,workers=1'
//	csdsbench -workload ycsb-b -threads 4 -size 2048
//	csdsbench -workload 'flash:updates=0.2' -alg 'sharded(8,list/lazy)'
//	csdsbench -workload ycsb-b -auto-spec -alg list/lazy -threads 4
//	csdsbench -alg 'readcache(512,list/lazy)' -cache-ttl 50ms -cache-admit tinylfu
//	csdsbench -list
//
// -workload selects a named operation mix (the catalog is in -list and
// README "Production workloads"): the mix sets the update ratio, skew,
// scan/cursor/batch tails and any time-varying dynamics (flash crowds,
// working-set drift, diurnal think time), and explicitly-set flags
// override the mix field by field. -auto-spec derives the composite
// structure from the workload instead of taking it from -alg: the tuner
// (cmd/csdsmodel, internal/tuner) picks the shard width, cache capacity
// and page-size hint, and the derived spec becomes the report's
// algorithm line, so auto-tuned cells are honest about what was measured.
//
// -fault arms the fault plane, which also carries the paper's §5.4
// adversaries: the plan above is Figure 9's victim (worker 0 delayed
// 1–100 µs on every 5th write phase ≈ every 10th update, locks held), and
// 'htm.abort:p=0.001,min=50us,max=500us;cs.delay:p=0.001,min=50us,max=500us'
// is Tables 2–3's multiprogramming (see fault.PaperVictim and
// fault.Multiprogram).
//
// A -scan-frac above 0 dedicates that fraction of operations to
// linearizable range scans (every structure and combinator implements
// them); scans are measured apart from point operations and reported on
// their own rows. A -cursor-frac above 0 likewise dedicates operations
// to paginated (cursor) scans — each draws a window and pages through it
// with -page-len sized batches — measured apart from both point ops and
// one-shot scans (pages/sec, keys/page, page latency, retries/page).
// A -batch-frac above 0 dedicates operations to batched Multi* calls of
// -batch-len keys (every structure and combinator implements
// core.Batcher); batches report their own rows — batches/sec,
// keys/batch, batch latency, and the fraction that traveled a
// flat-combining publication list — plus an allocs/op line:
//
//	csdsbench -alg 'sharded(32,list/lazy)' -batch-frac 0.25 -batch-len 64 -zipf 0.9
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"csds/internal/combinator"
	"csds/internal/core"
	"csds/internal/fault"
	"csds/internal/harness"
	"csds/internal/tuner"
	"csds/internal/workload"

	_ "csds/internal/bst"
	_ "csds/internal/hashtable"
	_ "csds/internal/list"
	_ "csds/internal/skiplist"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchOpts holds every flag's destination. The FlagSet they register on
// (newFlags) is the single source of flag documentation: -list prints
// its roster and the unknown-algorithm hint derives from it too, so the
// help text cannot drift from the registered flags.
type benchOpts struct {
	alg        *string
	threads    *int
	size       *int
	updates    *float64
	scanFrac   *float64
	scanLen    *int64
	scanDist   *string
	cursorFrac *float64
	pageLen    *int64
	pageDist   *string
	batchFrac  *float64
	batchLen   *int64
	batchDist  *string
	zipf       *float64
	dur        *time.Duration
	runs       *int
	elide      *int
	ebrOn      *bool
	resizeAt   *string
	egrow      *float64
	eshrink    *float64
	egrowWait  *float64
	emin       *int
	emax       *int
	einterval  *time.Duration
	net        *string
	faultSpec  *string
	wl         *string
	autoSpec   *bool
	cacheTTL   *time.Duration
	cacheAdmit *string
	listAlgs   *bool
}

// newFlags registers the full csdsbench flag table on a fresh FlagSet.
func newFlags(stderr io.Writer) (*flag.FlagSet, *benchOpts) {
	fs := flag.NewFlagSet("csdsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &benchOpts{
		alg:        fs.String("alg", "list/lazy", "algorithm spec: a name or composite like 'sharded(16,list/lazy)' (see -list)"),
		threads:    fs.Int("threads", 20, "worker goroutines"),
		size:       fs.Int("size", 2048, "structure size"),
		updates:    fs.Float64("updates", 0.1, "update ratio"),
		scanFrac:   fs.Float64("scan-frac", 0, "fraction of operations that are range scans (0 = none)"),
		scanLen:    fs.Int64("scan-len", 64, "mean scan length in keys of the key space"),
		scanDist:   fs.String("scan-dist", "uniform", "scan-length distribution: uniform, fixed or geometric"),
		cursorFrac: fs.Float64("cursor-frac", 0, "fraction of operations that are paginated (cursor) scans (0 = none)"),
		pageLen:    fs.Int64("page-len", 16, "mean cursor page size in keys per batch"),
		pageDist:   fs.String("page-dist", "uniform", "page-size distribution: uniform, fixed or geometric"),
		batchFrac:  fs.Float64("batch-frac", 0, "fraction of operations that are batched Multi* calls (0 = none)"),
		batchLen:   fs.Int64("batch-len", 64, "mean batch length in keys per Multi* call"),
		batchDist:  fs.String("batch-dist", "uniform", "batch-length distribution: uniform, fixed or geometric"),
		zipf:       fs.Float64("zipf", 0, "Zipfian exponent (0 = uniform)"),
		dur:        fs.Duration("dur", 500*time.Millisecond, "measurement window per run"),
		runs:       fs.Int("runs", 3, "runs to average (paper: 11)"),
		elide:      fs.Int("elide", 0, "HTM elision attempts (0 = plain locks)"),
		ebrOn:      fs.Bool("ebr", false, "attach epoch-based reclamation"),
		resizeAt:   fs.String("resize-at", "", "resize schedule for elastic specs: 'dur:width[,dur:width...]', e.g. '100ms:8,300ms:2'"),
		egrow:      fs.Float64("elastic-grow", 0, "adaptive policy: double the width when per-shard ops/s exceeds this (0 = off)"),
		eshrink:    fs.Float64("elastic-shrink", 0, "adaptive policy: halve the width when per-shard ops/s falls below this (0 = off)"),
		egrowWait:  fs.Float64("elastic-growwait", 0, "adaptive policy: double the width when the lock-wait fraction exceeds this (0 = off)"),
		emin:       fs.Int("elastic-min", 1, "adaptive policy width floor"),
		emax:       fs.Int("elastic-max", 64, "adaptive policy width ceiling"),
		einterval:  fs.Duration("elastic-interval", 25*time.Millisecond, "adaptive policy sampling cadence"),
		net:        fs.String("net", "", "drive a remote csdsd at host:port as a closed-loop client instead of running in-process"),
		faultSpec:  fs.String("fault", "", "fault-injection schedule, e.g. 'chaos:seed=7' (local: drives the harness injectors; with -net: a fixed-budget wire chaos cell that verifies acknowledged writes; empty: off)"),
		wl:         fs.String("workload", "", "named workload mix with optional modifiers, e.g. 'ycsb-b' or 'flash:updates=0.2' (see -list; explicitly-set flags override the mix)"),
		autoSpec:   fs.Bool("auto-spec", false, "derive the composite spec from the workload via the tuner; -alg must then name a plain leaf algorithm"),
		cacheTTL:   fs.Duration("cache-ttl", 0, "readcache entry TTL: expired entries are never served and re-read through (0 = no expiry)"),
		cacheAdmit: fs.String("cache-admit", "", "readcache admission policy on miss fills: always, tinylfu or window (empty = always)"),
		listAlgs:   fs.Bool("list", false, "list registered algorithms, combinators and flags, then exit"),
	}
	return fs, o
}

// flagRoster renders every registered flag as "-name" in lexical order —
// the drift-proof flag listing -list and the error hint share.
func flagRoster(fs *flag.FlagSet) []string {
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, "-"+f.Name) })
	return names
}

// faultFiresLine renders a Result's per-point firing counts in canonical
// point order — the local-harness twin of fault.Tally.String.
func faultFiresLine(fires map[fault.Point]uint64) string {
	var parts []string
	for _, pt := range fault.Points {
		if n := fires[pt]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", pt, n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// parseResizeSteps parses the -resize-at syntax: a comma-separated list of
// duration:width pairs, e.g. "100ms:8,300ms:2".
func parseResizeSteps(s string) ([]harness.ResizeStep, error) {
	var steps []harness.ResizeStep
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		at, width, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("resize step %q: want duration:width (e.g. 100ms:8)", part)
		}
		d, err := time.ParseDuration(strings.TrimSpace(at))
		if err != nil {
			return nil, fmt.Errorf("resize step %q: %v", part, err)
		}
		w, err := strconv.Atoi(strings.TrimSpace(width))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("resize step %q: width must be a positive integer", part)
		}
		steps = append(steps, harness.ResizeStep{At: d, Width: w})
	}
	return steps, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs, o := newFlags(stderr)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *o.listAlgs {
		for _, n := range core.Names() {
			info, _ := core.Lookup(n)
			star := " "
			if info.Featured {
				star = "*"
			}
			fmt.Fprintf(stdout, "%s %-24s %-10s %s\n", star, n, info.Progress, info.Desc)
		}
		fmt.Fprintln(stdout, "\ncombinators (compose as comb(N,spec), nesting allowed):")
		for _, c := range core.Combinators() {
			fmt.Fprintf(stdout, "  %-26s %s\n", fmt.Sprintf("%s(%s,spec)", c.Name, c.ArgDesc), c.Desc)
		}
		// Like the flag section below, the mix catalog is generated from
		// the live registry (workload.Mixes), so -list shows every named
		// mix without a hand-maintained copy that could drift.
		fmt.Fprintln(stdout, "\nworkload mixes (-workload name[:key=value...], e.g. 'ycsb-a:zipf=0.8'):")
		for _, m := range workload.Mixes() {
			fmt.Fprintf(stdout, "  %-10s %s\n", m.Name, m.Desc)
		}
		// The flag section is generated straight from the FlagSet, so it
		// lists every flag — scan, cursor, batch, elastic — without a
		// hand-maintained copy that could drift.
		fmt.Fprintln(stdout, "\nflags (defaults in parentheses):")
		fs.VisitAll(func(f *flag.Flag) {
			fmt.Fprintf(stdout, "  %-20s %s (%s)\n", "-"+f.Name, f.Usage, f.DefValue)
		})
		return 0
	}

	for _, d := range []struct {
		flag, val string
	}{
		{"scan-dist", *o.scanDist},
		{"page-dist", *o.pageDist},
		{"batch-dist", *o.batchDist},
	} {
		switch d.val {
		case workload.ScanLenUniform, workload.ScanLenFixed, workload.ScanLenGeometric:
		default:
			fmt.Fprintf(stderr, "csdsbench: -%s %q: want uniform, fixed or geometric\n", d.flag, d.val)
			return 1
		}
	}
	for _, fr := range []struct {
		flag string
		val  float64
	}{
		{"scan-frac", *o.scanFrac},
		{"cursor-frac", *o.cursorFrac},
		{"batch-frac", *o.batchFrac},
	} {
		if fr.val < 0 || fr.val > 1 {
			fmt.Fprintf(stderr, "csdsbench: -%s %v outside [0, 1]\n", fr.flag, fr.val)
			return 1
		}
	}
	if *o.scanLen < 1 {
		fmt.Fprintf(stderr, "csdsbench: -scan-len %d: the mean scan length must be at least 1\n", *o.scanLen)
		return 1
	}
	if *o.pageLen < 1 {
		fmt.Fprintf(stderr, "csdsbench: -page-len %d: the mean page size must be at least 1\n", *o.pageLen)
		return 1
	}
	if *o.batchLen < 1 {
		fmt.Fprintf(stderr, "csdsbench: -batch-len %d: the mean batch length must be at least 1\n", *o.batchLen)
		return 1
	}
	if !combinator.ValidAdmission(*o.cacheAdmit) {
		fmt.Fprintf(stderr, "csdsbench: -cache-admit %q: want always, tinylfu or window\n", *o.cacheAdmit)
		return 1
	}
	if *o.cacheTTL < 0 {
		fmt.Fprintf(stderr, "csdsbench: -cache-ttl %v: a freshness bound cannot be negative\n", *o.cacheTTL)
		return 1
	}
	plan, perr := fault.ParsePlan(*o.faultSpec)
	if perr != nil {
		fmt.Fprintf(stderr, "csdsbench: -fault: %v\n", perr)
		return 1
	}

	// The workload: flags alone, or a named mix overridden field by field
	// by whichever flags were explicitly set (-size always governs the
	// structure size — mixes describe shape, not scale).
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	wcfg := workload.Config{
		Size: *o.size, UpdateRatio: *o.updates, ZipfS: *o.zipf,
		ScanRatio: *o.scanFrac, ScanLen: *o.scanLen, ScanLenDist: *o.scanDist,
		CursorRatio: *o.cursorFrac, PageLen: *o.pageLen, PageLenDist: *o.pageDist,
		BatchRatio: *o.batchFrac, BatchLen: *o.batchLen, BatchLenDist: *o.batchDist,
	}
	if *o.wl != "" {
		mix, err := workload.ParseMix(*o.wl)
		if err != nil {
			fmt.Fprintf(stderr, "csdsbench: -workload: %v\n", err)
			return 1
		}
		mix.Size = *o.size
		mix.ScanLenDist, mix.PageLenDist, mix.BatchLenDist = *o.scanDist, *o.pageDist, *o.batchDist
		for name := range explicit {
			switch name {
			case "updates":
				mix.UpdateRatio = *o.updates
			case "zipf":
				mix.ZipfS = *o.zipf
			case "scan-frac":
				mix.ScanRatio = *o.scanFrac
			case "scan-len":
				mix.ScanLen = *o.scanLen
			case "cursor-frac":
				mix.CursorRatio = *o.cursorFrac
			case "page-len":
				mix.PageLen = *o.pageLen
			case "batch-frac":
				mix.BatchRatio = *o.batchFrac
			case "batch-len":
				mix.BatchLen = *o.batchLen
			}
		}
		// Length fields the mix leaves unset fall back to the flag
		// defaults rather than the zero value.
		if mix.ScanLen == 0 {
			mix.ScanLen = *o.scanLen
		}
		if mix.PageLen == 0 {
			mix.PageLen = *o.pageLen
		}
		if mix.BatchLen == 0 {
			mix.BatchLen = *o.batchLen
		}
		wcfg = mix
	}

	// -auto-spec: the tuner derives the composite around the -alg leaf.
	// The derived spec replaces the algorithm everywhere — including the
	// report's algorithm line, so auto-tuned cells record what was built.
	alg := *o.alg
	cacheAdmit := *o.cacheAdmit
	if *o.autoSpec {
		d, err := tuner.Derive(tuner.Inputs{Leaf: *o.alg, Threads: *o.threads, Size: *o.size, Workload: wcfg})
		if err != nil {
			fmt.Fprintf(stderr, "csdsbench: -auto-spec: %v\n", err)
			fmt.Fprintf(stderr, "hint: csdsmodel -auto-spec -workload <mix> -leaf <alg> explains the derivation\n")
			return 1
		}
		alg = d.Spec
		if d.CacheSlots > 0 && cacheAdmit == "" {
			cacheAdmit = d.CacheAdmission
		}
		if d.PageLen > 0 && !explicit["page-len"] {
			wcfg.PageLen = d.PageLen
		}
	}

	cfg := harness.Config{
		Algorithm: alg, Threads: *o.threads, Duration: *o.dur, Runs: *o.runs,
		ElideAttempts: *o.elide, UseEBR: *o.ebrOn,
		CacheTTL: *o.cacheTTL, CacheAdmission: cacheAdmit,
		Fault:    plan,
		Workload: wcfg,
	}
	if *o.resizeAt != "" {
		steps, err := parseResizeSteps(*o.resizeAt)
		if err != nil {
			fmt.Fprintf(stderr, "csdsbench: -resize-at: %v\n", err)
			return 1
		}
		cfg.ResizeSteps = steps
	}
	if *o.egrow > 0 || *o.eshrink > 0 || *o.egrowWait > 0 {
		cfg.Elastic = &harness.ElasticPolicy{
			Interval: *o.einterval, GrowOps: *o.egrow, ShrinkOps: *o.eshrink,
			GrowWait: *o.egrowWait, MinWidth: *o.emin, MaxWidth: *o.emax,
		}
	} else {
		// Bound/cadence flags without a trigger would silently run a
		// static benchmark; refuse instead of ignoring the user's intent.
		orphaned := false
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "elastic-min", "elastic-max", "elastic-interval":
				orphaned = true
			}
		})
		if orphaned {
			fmt.Fprintf(stderr, "csdsbench: -elastic-min/-elastic-max/-elastic-interval have no effect without a trigger; set -elastic-grow, -elastic-shrink or -elastic-growwait\n")
			return 1
		}
	}
	var res harness.Result
	var chaos netChaosInfo
	var err error
	if *o.net != "" {
		// Networked mode measures a remote csdsd; flags that configure
		// the in-process structure or harness would be silently ignored,
		// so explicitly setting one is an error, not a no-op.
		var rejected []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "elide", "ebr", "resize-at",
				"elastic-grow", "elastic-shrink", "elastic-growwait",
				"elastic-min", "elastic-max", "elastic-interval",
				"auto-spec", "cache-ttl", "cache-admit":
				rejected = append(rejected, "-"+f.Name)
			}
		})
		if len(rejected) > 0 {
			fmt.Fprintf(stderr, "csdsbench: %s configure the in-process harness and have no effect with -net; set them on the csdsd server instead\n",
				strings.Join(rejected, " "))
			return 1
		}
		res, chaos, err = netRun(*o.net, cfg, plan)
	} else {
		res, err = harness.Run(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "csdsbench: %v\n", err)
		fmt.Fprintf(stderr, "hint: run 'csdsbench -list' for registered algorithms, combinators and flags;\n")
		fmt.Fprintf(stderr, "      composite specs look like 'sharded(16,list/lazy)' or 'elastic(4,bst/tk)'\n")
		fmt.Fprintf(stderr, "      flags: %s\n", strings.Join(flagRoster(fs), " "))
		return 1
	}
	fmt.Fprintf(stdout, "algorithm          %s\n", alg)
	if *o.autoSpec {
		fmt.Fprintf(stdout, "auto-tuned         derived from -alg %s by the tuner (csdsmodel -auto-spec explains it)\n", *o.alg)
	}
	if *o.wl != "" {
		fmt.Fprintf(stdout, "workload           %s\n", *o.wl)
	}
	if *o.net != "" {
		fmt.Fprintf(stdout, "networked          closed-loop client of csdsd at %s\n", *o.net)
	}
	fmt.Fprintf(stdout, "threads/size/upd   %d / %d / %.0f%%  (zipf %g)\n", *o.threads, *o.size, wcfg.UpdateRatio*100, wcfg.ZipfS)
	fmt.Fprintf(stdout, "window x runs      %v x %d\n", *o.dur, *o.runs)
	fmt.Fprintf(stdout, "throughput         %.3f Mops/s (%d ops total)\n", res.Throughput/1e6, res.TotalOps)
	fmt.Fprintf(stdout, "per-thread         mean %.0f ops/s, stddev %.0f\n", res.PerThreadMean, res.PerThreadStddev)
	fmt.Fprintf(stdout, "lock wait frac     %.6f (stddev %.6f), worst single wait %v\n",
		res.WaitFraction, res.WaitFractionStddev, time.Duration(res.MaxWaitNs))
	fmt.Fprintf(stdout, "waiting acq frac   %.6f\n", res.WaitingOpsFrac)
	fmt.Fprintf(stdout, "restarted >=1x     %.6f   >3x %.6f\n", res.RestartedFrac, res.RestartedFrac3)
	fmt.Fprintf(stdout, "restart histogram  %v\n", res.RestartHist)
	if res.TotalScans > 0 {
		fmt.Fprintf(stdout, "scan throughput    %.0f scans/s (%d scans total, %.1f keys/scan)\n",
			res.ScanThroughput, res.TotalScans, res.ScanKeysMean)
		// Means keep ns resolution: a sub-µs scan would print as 0 or 1µs.
		fmt.Fprintf(stdout, "scan latency       mean %v, worst %v, %.3f retries/scan\n",
			time.Duration(res.ScanMeanNs), time.Duration(res.ScanMaxNs).Round(time.Microsecond), res.ScanRetryFrac)
	}
	if res.TotalPages > 0 {
		fmt.Fprintf(stdout, "cursor throughput  %.0f pages/s (%d pages over %d paginated scans, %.1f keys/page)\n",
			res.PageThroughput, res.TotalPages, res.TotalCursors, res.PageKeysMean)
		fmt.Fprintf(stdout, "page latency       mean %v, worst %v, %.3f retries/page\n",
			time.Duration(res.PageMeanNs), time.Duration(res.PageMaxNs).Round(time.Microsecond), res.CursorRetryFrac)
		over := 1.0
		if res.PageKeysMean > 0 {
			over = res.PagePullKeysMean / res.PageKeysMean
		}
		fmt.Fprintf(stdout, "page pulls         %.1f pulls/page, %.1f keys pulled/page (overcollect x%.2f)\n",
			res.PagePullsMean, res.PagePullKeysMean, over)
	}
	if res.TotalBatches > 0 {
		fmt.Fprintf(stdout, "batch throughput   %.0f batches/s (%d batches, %d keys total, %.1f keys/batch)\n",
			res.BatchThroughput, res.TotalBatches, res.TotalBatchKeys, res.BatchKeysMean)
		fmt.Fprintf(stdout, "batch latency      mean %v, worst %v\n",
			time.Duration(res.BatchMeanNs), time.Duration(res.BatchMaxNs).Round(time.Microsecond))
		fmt.Fprintf(stdout, "flat combining     %.6f of batches rode a combiner (%d combined)\n",
			res.CombineFrac, res.CombinedBatches)
	}
	if res.AllocsPerOp > 0 {
		fmt.Fprintf(stdout, "allocations        %.2f allocs/op (point + batch keys + scans + pages)\n", res.AllocsPerOp)
	}
	if res.CacheHits+res.CacheMisses > 0 {
		fmt.Fprintf(stdout, "cache              %.4f hit frac (%d hits / %d misses), %d fills, %d expiries, %d rejected fills\n",
			res.CacheHitFrac, res.CacheHits, res.CacheMisses, res.CacheFills, res.CacheExpiries, res.CacheRejects)
	}
	if res.FallbackFrac > 0 || *o.elide > 0 {
		fmt.Fprintf(stdout, "HTM fallback frac  %.6f (aborts: conflict=%d interrupt=%d fallback-held=%d capacity=%d)\n",
			res.FallbackFrac, res.TxAborts[0], res.TxAborts[1], res.TxAborts[2], res.TxAborts[3])
	}
	if *o.ebrOn {
		fmt.Fprintf(stdout, "EBR                retired %d, reclaimed %d, pool hit frac %.4f (%d hits / %d misses)\n",
			res.Retired, res.Reclaimed, res.PoolHitFrac, res.PoolHits, res.PoolMisses)
	}
	if chaos.Armed {
		fmt.Fprintf(stdout, "net chaos          %d ops budget x %d workers, plan '%s'\n", chaos.Budget, *o.threads, plan)
		hitFrac := 0.0
		if chaos.Ops > 0 {
			hitFrac = float64(chaos.Hits) / float64(chaos.Ops)
		}
		fmt.Fprintf(stdout, "fault hit frac     %.4f (%d of %d ops hit an injected fault or engaged recovery; %d client retries)\n",
			hitFrac, chaos.Hits, chaos.Ops, chaos.Retries)
		fmt.Fprintf(stdout, "fault tally        %s\n", chaos.Tally)
		fmt.Fprintf(stdout, "acked writes       %d tracked, all verified present after the run\n", chaos.Acked)
	} else if res.Faults > 0 {
		fmt.Fprintf(stdout, "faults injected    %d (%s)\n", res.Faults, faultFiresLine(res.FaultFires))
	}
	if res.GCPauseNs > 0 {
		fmt.Fprintf(stdout, "GC pause           %v stop-the-world inside the measured window\n", time.Duration(res.GCPauseNs))
	}
	if res.WidthTrace != nil {
		var tr []string
		for _, ws := range res.WidthTrace {
			tr = append(tr, fmt.Sprintf("%v:%d", time.Duration(ws.AtNs).Round(time.Millisecond), ws.Width))
		}
		fmt.Fprintf(stdout, "elastic width      final %d after %d resizes (last run trace: %s)\n",
			res.FinalWidth, res.Resizes, strings.Join(tr, " "))
	}
	return 0
}
