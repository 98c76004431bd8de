// Command csdsmodel is the analytic side of the tuning loop: it
// evaluates the Section 6 birthday-paradox conflict model (the paper's
// four numeric examples by default, or a custom scenario from flags),
// validates the internal/sim cost model against cells it measures on
// the spot, and derives auto-tuned composite specifications from a
// named workload (the same derivation csdsbench -auto-spec runs).
//
// Usage:
//
//	csdsmodel                 # reproduce §6.1–§6.4 numbers
//	csdsmodel -threads 40 -size 512 -updates 0.2 -writefrac 0.1 -kind list
//	csdsmodel -validate
//	csdsmodel -auto-spec -workload ycsb-b -leaf list/lazy -threads 4 -size 2048
//
// -validate measures a fixed 15-cell roster through the in-process
// harness (validateGrid: ~10 s at 4 threads, 2048 elements, 300 ms x 2
// per cell), predicts every cell's point throughput with the
// composite-aware simulator bridge (internal/tuner.PredictCell), fits
// one global scale factor — the simulator predicts shape, the factor
// absorbs the host's absolute speed — and reports the per-cell residual
// error plus the roster MAE. It is a report, never a gate.
//
// -auto-spec runs the tuner derivation and prints the composite spec
// with one note per derived parameter; -threads 0 defaults to
// GOMAXPROCS here (and only here — the derivation itself is a pure
// function of its inputs, so tests can pin derived specs string for
// string).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"csds/internal/birthday"
	"csds/internal/harness"
	"csds/internal/tuner"
	"csds/internal/workload"
	"csds/internal/xrand"

	// -validate builds its roster by spec: list leaves under combinators.
	_ "csds/internal/combinator"
	_ "csds/internal/list"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("csdsmodel", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threads := fs.Int("threads", 0, "thread count (0 = print the paper's examples; with -auto-spec, 0 = GOMAXPROCS)")
	size := fs.Int("size", 512, "structure size (elements or buckets)")
	updates := fs.Float64("updates", 0.2, "update ratio u")
	durUpd := fs.Float64("durupdate", 1.1, "relative update duration")
	durRead := fs.Float64("durread", 1.0, "relative read duration")
	writeFrac := fs.Float64("writefrac", 0.1, "write-phase share of an update (dw/(dw+dp))")
	kind := fs.String("kind", "list", "structure kind: list | hash")
	zipf := fs.Float64("zipf", 0, "Zipfian exponent for the non-uniform term (0 = uniform)")
	retries := fs.Int("retries", 5, "TSX speculation budget")
	validate := fs.Bool("validate", false, "measure the fixed 15-cell roster in-process (~10 s) and report the simulator's per-cell error against it")
	autoSpec := fs.Bool("auto-spec", false, "derive an auto-tuned composite spec for -workload over -leaf")
	mix := fs.String("workload", "paper", "named workload mix for -auto-spec (see csdsbench -list)")
	leaf := fs.String("leaf", "list/lazy", "leaf algorithm for -auto-spec to wrap")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *validate {
		return runValidate(harness.Run, stdout, stderr)
	}
	if *autoSpec {
		t := *threads
		if t == 0 {
			t = runtime.GOMAXPROCS(0)
		}
		return runAutoSpec(*mix, *leaf, t, *size, stdout, stderr)
	}
	if *threads == 0 {
		paperExamples(stdout)
		return 0
	}
	s := birthday.Scenario{
		Threads: *threads, Size: *size, UpdateRatio: *updates,
		DurUpdate: *durUpd, DurRead: *durRead, WriteFrac: *writeFrac,
		TSXRetries: *retries,
	}
	if *zipf > 0 {
		s.SumP2 = xrand.NewZipf(int64(*size), *zipf).SumPSquared()
	}
	fmt.Fprintf(stdout, "scenario: t=%d n=%d u=%.2f writefrac=%.2f kind=%s zipf=%.2f\n",
		s.Threads, s.Size, s.UpdateRatio, s.WriteFrac, *kind, *zipf)
	fmt.Fprintf(stdout, "  f_w (Eq.2)           = %.4f\n", s.FW())
	switch *kind {
	case "hash":
		fmt.Fprintf(stdout, "  p_conflict (Eq.3+4)  = %.4f (%.2f%%)\n", s.HashConflict(), 100*s.HashConflict())
		fmt.Fprintf(stdout, "  p_lock TSX (Eq.7)    = %.3e\n", s.HashTSXFallback())
	case "list":
		fmt.Fprintf(stdout, "  p_conflict (Eq.3+5)  = %.4f (%.2f%%)\n", s.ListConflict(), 100*s.ListConflict())
		fmt.Fprintf(stdout, "  TSX attempt conflict = %.4f\n", s.ListTSXConflict())
		fmt.Fprintf(stdout, "  p_lock TSX (Eq.8)    = %.3e\n", s.ListTSXFallback())
	default:
		fmt.Fprintf(stderr, "unknown kind %q\n", *kind)
		return 2
	}
	if s.SumP2 > 0 {
		fmt.Fprintf(stdout, "  p_conflict zipf (Eq.6)= %.4f (%.2f%%)\n", s.NonUniformConflict(), 100*s.NonUniformConflict())
	}
	return 0
}

// runAutoSpec derives and explains the composite spec for one workload.
// The first output line is machine-readable ("spec: <spec>"); the notes
// after it explain each parameter.
func runAutoSpec(mix, leaf string, threads, size int, stdout, stderr io.Writer) int {
	cfg, err := workload.ParseMix(mix)
	if err != nil {
		fmt.Fprintf(stderr, "csdsmodel: %v\n", err)
		return 1
	}
	d, err := tuner.Derive(tuner.Inputs{Leaf: leaf, Threads: threads, Size: size, Workload: cfg})
	if err != nil {
		fmt.Fprintf(stderr, "csdsmodel: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "spec: %s\n", d.Spec)
	fmt.Fprintf(stdout, "workload %s, leaf %s, %d threads, %d elements\n", mix, leaf, threads, size)
	for _, n := range d.Notes {
		fmt.Fprintf(stdout, "  - %s\n", n)
	}
	if d.CacheSlots > 0 {
		fmt.Fprintf(stdout, "run it: csdsbench -workload %s -auto-spec -threads %d -size %d   (admission: -cache-admit %s)\n",
			mix, threads, size, d.CacheAdmission)
	} else {
		fmt.Fprintf(stdout, "run it: csdsbench -workload %s -auto-spec -threads %d -size %d\n", mix, threads, size)
	}
	return 0
}

// The -validate roster runs at one fixed budget — constants, not flags:
// residuals are only comparable across hosts and commits if every
// report measured the same cells the same way.
const (
	gridThreads = 4
	gridSize    = 2048
	gridWindow  = 300 * time.Millisecond
	gridRuns    = 2

	// The paper's mix at 10 % updates with a 5 % one-shot-scan and 5 %
	// paginated-cursor tail, or with 25 % Multi* calls instead.
	tailMix  = "paper:updates=0.1:scan-frac=0.05:cursor-frac=0.05"
	batchMix = "paper:updates=0.1:batch-frac=0.25"
)

// validateGrid is the roster, each cell a csdsbench -alg / -workload
// pair: the regimes the simulator has to rank — single instance, static
// and resizable partitions at two widths, EBR twins, a cache under
// skew, batches on wide and on one contended shard, and ycsb-b on a
// hand-picked spec beside the tuner's own pick (auto: alg is the leaf).
var validateGrid = []struct {
	alg, mix  string
	ebr, auto bool
}{
	{alg: "list/lazy", mix: tailMix},
	{alg: "sharded(8,list/lazy)", mix: tailMix},
	{alg: "elastic(8,list/lazy)", mix: tailMix},
	{alg: "sharded(32,list/lazy)", mix: tailMix},
	{alg: "elastic(32,list/lazy)", mix: tailMix},
	{alg: "sharded(32,list/lazy)", mix: tailMix, ebr: true},
	{alg: "elastic(32,list/lazy)", mix: tailMix, ebr: true},
	{alg: "readcache(1024,list/lazy)", mix: tailMix + ":zipf=0.9"},
	{alg: "sharded(32,list/lazy)", mix: batchMix},
	{alg: "sharded(32,list/lazy)", mix: batchMix + ":zipf=0.9"},
	{alg: "elastic(32,list/lazy)", mix: batchMix},
	{alg: "elastic(32,list/lazy)", mix: batchMix + ":zipf=0.9"},
	{alg: "sharded(1,list/lazy)", mix: batchMix + ":zipf=0.9"},
	{alg: "sharded(32,list/lazy)", mix: "ycsb-b"},
	{alg: "list/lazy", mix: "ycsb-b", auto: true},
}

// runValidate measures the roster and reports the sim-vs-live error per
// cell after a global scale fit, in roster order so twins (EBR on/off,
// uniform/skewed, hand/auto) sit next to each other. measure is
// harness.Run outside tests.
func runValidate(measure func(harness.Config) (harness.Result, error), stdout, stderr io.Writer) int {
	var cells []tuner.Cell
	var keys []string
	var live []float64
	for _, g := range validateGrid {
		// Parse, derive and measure share one error path.
		wl, err := workload.ParseMix(g.mix)
		wl.Size = gridSize
		cfg := harness.Config{
			Algorithm: g.alg, Threads: gridThreads, Duration: gridWindow, Runs: gridRuns,
			UseEBR: g.ebr, Workload: wl,
		}
		if err == nil && g.auto {
			var d tuner.Derived
			d, err = tuner.Derive(tuner.Inputs{Leaf: g.alg, Threads: gridThreads, Size: gridSize, Workload: wl})
			cfg.Algorithm, cfg.CacheAdmission = d.Spec, d.CacheAdmission
		}
		var res harness.Result
		if err == nil {
			res, err = measure(cfg)
		}
		if err != nil {
			fmt.Fprintf(stderr, "csdsmodel: -validate: %s on %s: %v\n", g.alg, g.mix, err)
			return 1
		}
		key := cfg.Algorithm + " " + g.mix
		if g.ebr {
			key += " ebr"
		}
		cells = append(cells, tuner.Cell{
			Alg: cfg.Algorithm, Threads: gridThreads, Size: gridSize, Updates: wl.UpdateRatio, Zipf: wl.ZipfS,
			ScanFrac: wl.ScanRatio, CursorFrac: wl.CursorRatio, BatchFrac: wl.BatchRatio,
		})
		keys = append(keys, key)
		live = append(live, res.Throughput)
	}
	v, err := tuner.Validate(cells, keys, live)
	if err != nil {
		fmt.Fprintf(stderr, "csdsmodel: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "sim-vs-live validation on this host; each cell is csdsbench -alg <spec> -workload <mix> [-ebr] -threads %d -size %d -dur %v -runs %d\n",
		gridThreads, gridSize, gridWindow, gridRuns)
	fmt.Fprintf(stdout, "global scale factor %.3g (geometric mean live/predicted; the simulator predicts shape, not nanoseconds)\n", v.Scale)
	for _, c := range v.Cells {
		fmt.Fprintf(stdout, "  %-72s live %8.3f Mops  pred %8.3f Mops  error %+6.1f%%\n",
			c.Key, c.LiveMops, c.PredMops, 100*c.ResidFrac)
	}
	fmt.Fprintf(stdout, "%d cells validated, mean |error| %.1f%%\n", len(v.Cells), 100*v.MAEFrac)
	return 0
}

func paperExamples(w io.Writer) {
	fmt.Fprintln(w, "Section 6 numeric examples (paper value in brackets)")
	h := birthday.PaperHashExample()
	fmt.Fprintln(w, "\n§6.1 hash table: 1024 buckets, 20 threads, 10% updates, d_p = 0")
	fmt.Fprintf(w, "  f_u = f_w            = %.4f   [0.18]\n", h.FW())
	fmt.Fprintf(w, "  p_conflict           = %.4f   [0.0058]\n", h.HashConflict())

	l := birthday.PaperListExample()
	fmt.Fprintln(w, "\n§6.2 linked list: 512 elements, 40 threads, 20% updates, write ~10% of update")
	fmt.Fprintf(w, "  f_w                  = %.4f   [0.0215]\n", l.FW())
	fmt.Fprintf(w, "  p_conflict           = %.4f   [0.0021]\n", l.ListConflict())

	z := l
	z.SumP2 = xrand.NewZipf(int64(z.Size), 0.8).SumPSquared()
	fmt.Fprintln(w, "\n§6.3 non-uniform: same list, Zipf s = 0.8 (Poisson approximation)")
	fmt.Fprintf(w, "  p_conflict           = %.4f   [0.0047]\n", z.NonUniformConflict())

	fmt.Fprintln(w, "\n§6.4 TSX-based versions (5 retries before locking)")
	fmt.Fprintf(w, "  hash p_lock          = %.3e   [5e-6]\n", h.HashTSXFallback())
	fmt.Fprintf(w, "  list attempt conflict= %.4f   [0.16]\n", l.ListTSXConflict())
	fmt.Fprintf(w, "  list p_lock          = %.3e   [1e-5]\n", l.ListTSXFallback())
}
