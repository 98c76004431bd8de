// Command bench is the repository's benchmark: four workloads, the
// end-to-end metrics a user of the system sees, and — from a separate
// traced run — per-layer metrics that attribute them. It drives the
// system only through its public seams and verifies what it gets back.
// See README.md in this directory.
//
//	bash bench/run.sh --workload wire-open --seed 1 --seconds 30 --trace 0
//	go run -C bench .                       # all four workloads, 30 s each
//	go run -C bench . -trace 1              # the per-layer report
//	go run -C bench . -repeat 5             # run-to-run spread per metric
//	go run -C bench . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	seed    uint64
	seconds time.Duration // measured time
	trace   bool
	setups  int    // how many times set-up is run and timed
	spans   string // traced wire runs: where the recorded spans go
}

// outcome is what a workload run hands back for reporting.
type outcome struct {
	setup  []float64          // seconds, one per timed set-up
	m      *measured          // the untraced window (trace off), or the traced one
	layers map[string]float64 // per-layer numbers (trace on)
	hash   uint64             // identity of the generated load
	notes  []string           // human-readable findings (stderr and the full report)

	attempted, failed, violations uint64
}

// count folds the workers' completion and failure counters into the
// outcome: attempted is what completed in the window plus what failed.
func (o *outcome) count(recs []*workerRec) {
	for _, r := range recs {
		o.attempted += r.failed
		for _, n := range r.ops {
			o.attempted += n
		}
		o.failed += r.failed
		o.violations += r.violations
	}
}

type workloadDef struct {
	name, why string
	run       func(runConfig) (*outcome, error)
}

// workloads is the roster. Each why is the reason the workload exists:
// which layers it loads and which it bypasses.
var workloads = []workloadDef{
	{"inproc-point", "closed loop, 2 workers, 90/5/5 get/put/remove on sharded(32,hashtable/lazy)+EBR: all time is combinator crossing, leaf, Ctx chain, EBR bracket and stats slot; none in server",
		inprocPoint.run},
	{"inproc-range", "closed loop, 2 workers, scans, cursor pages and 64-key batches with writes beside them on sharded(32,skiplist/herlihy)+EBR: the merge, page and batch paths on the second leaf family",
		inprocRange.run},
	{"wire-open", "open loop, 2 connections, Poisson 10000 req/s, Zipf keys, one request per round trip timed from its due time: syscalls, goroutine hop and flush dominate; the structure is under 2 % of the time",
		wireOpen.run},
	{"wire-pipelined", "closed loop, 2 connections, trains of 32 pipelined requests: per-syscall cost is amortised 32x, so parse, burst merge into MultiGet, encode and the batch path dominate",
		wirePipelined.run},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// report is the JSON a run prints: the driver's four keys.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Notes     []string         `json:"notes,omitempty"` // full report only
}

// runOne runs one workload and reduces it to a report.
func runOne(wl *workloadDef, cfg runConfig, log io.Writer) (*report, error) {
	out, err := wl.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	fmt.Fprintf(log, "%s: seed %d, load %016x, %d attempted, %d failed, %d violations\n",
		wl.name, cfg.seed, out.hash, out.attempted, out.failed, out.violations)
	rep := &report{
		Correct:   out.violations == 0,
		Attempted: out.attempted,
		Failed:    out.failed + out.violations,
		Notes:     out.notes,
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(log, "%s: %s\n", wl.name, n)
	}
	if cfg.trace {
		out.layers["fail_frac"] = float64(rep.Failed) / float64(max(rep.Attempted, 1))
		rep.Metrics = layerValues(out.layers)
	} else {
		rep.Metrics = endToEndValues(out.setup, out.m)
	}
	return rep, nil
}

// fullReport is what a run over all workloads prints as one document.
type fullReport struct {
	Host      string             `json:"host"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Workloads map[string]*report `json:"workloads"`
}

func hostLine() string {
	return fmt.Sprintf("%s/%s, %d CPUs, GOMAXPROCS %d, %s; server hosted in this process on loopback — numbers are this sandbox's, not a NIC's",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

func runAll(cfg runConfig, log io.Writer) (*fullReport, error) {
	full := &fullReport{Host: hostLine(), Seed: cfg.seed, Seconds: cfg.seconds.Seconds(),
		Trace: cfg.trace, Workloads: map[string]*report{}}
	for i := range workloads {
		rep, err := runOne(&workloads[i], cfg, log)
		if err != nil {
			return nil, err
		}
		full.Workloads[workloads[i].name] = rep
	}
	return full, nil
}

func (f *fullReport) correct() bool {
	for _, r := range f.Workloads {
		if !r.Correct {
			return false
		}
	}
	return true
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload and print the driver's result line (default: all four, one document)")
	seed := fs.Uint64("seed", 1, "seed of the benchmark's own load generator")
	seconds := fs.Float64("seconds", 30, "measured seconds per workload (ten slices; a traced run splits them between windows and cells)")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics, tracing off")
	traceOut := fs.String("trace-out", "", "traced wire runs: write the recorded spans here as CSV (default: <temp dir>/csds-bench-<workload>.spans.csv)")
	repeat := fs.Int("repeat", 0, "run N back-to-back sets and print median, quartiles and max relative deviation per metric")
	compare := fs.Bool("compare", false, "compare two saved reports: -compare a.json b.json")
	benchJSON := fs.String("benchmark-json", "", "BENCHMARK.json holding the bounds -compare applies (default: found next to or above the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two report files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), *benchJSON, stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		setups: setupRepeats, spans: *traceOut}

	enc := json.NewEncoder(stdout)
	switch {
	case *workload != "":
		wl := findWorkload(*workload)
		if wl == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		rep, err := runOne(wl, cfg, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		// The driver's result line carries the four keys, and value and
		// unit only.
		rep.Notes = nil
		for name, v := range rep.Metrics {
			v.IQR, v.Slices = 0, nil
			rep.Metrics[name] = v
		}
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !rep.Correct {
			return 1
		}
	case *repeat > 0:
		return repeatRuns(*repeat, cfg, stdout, stderr)
	default:
		full, err := runAll(cfg, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		enc.SetIndent("", "  ")
		if err := enc.Encode(full); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !full.correct() {
			return 1
		}
	}
	return 0
}
