// Command figures regenerates every figure and table of the paper's
// evaluation. It is the only place a paper cell is declared: each figure
// loops over its cells, and one function per engine maps a cell to that
// engine's configuration.
//
//	-engine run    the real concurrent implementations measured on this
//	               host (goroutine harness);
//	-engine sim    the calibrated multicore simulator configured as the
//	               paper's machines (20-core Xeon, 8-thread TSX Haswell):
//	               the 40-thread *shapes* on small hosts, deterministically.
//	               Figures 2 and 9 and the §5.1 outliers have no model;
//	-engine model  the Section 6 closed-form birthday model (fig=model).
//	-engine both   run followed by sim (default).
//
// Usage:
//
//	figures -fig 8 -engine sim        # keys 1-10, t2, t3, outliers, model, all
//	figures -fig all -dur 2s -runs 5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"csds/internal/birthday"
	"csds/internal/core"
	"csds/internal/fault"
	"csds/internal/harness"
	"csds/internal/queuestack"
	"csds/internal/sim"
	"csds/internal/workload"
	"csds/internal/xrand"

	_ "csds/internal/bst"
	_ "csds/internal/hashtable"
	_ "csds/internal/list"
	_ "csds/internal/skiplist"
)

var (
	engine = flag.String("engine", "both", "run | sim | model | both")
	dur    = flag.Duration("dur", 300*time.Millisecond, "harness window per run (paper: 5s)")
	runs   = flag.Int("runs", 1, "harness runs to average (paper: 11)")
)

var (
	out      io.Writer = os.Stdout // every printer's output
	featured           = []string{"list/lazy", "skiplist/herlihy", "hashtable/lazy", "bst/tk"}
	sizes              = []int{512, 2048, 8192}
	updates            = []float64{0.01, 0.1, 0.5}
)

// figures in -fig all order; each prints its title as its header.
var figures = []struct {
	key, title string
	f          func()
}{
	{"1", "Figure 1: blocking vs lock-free vs wait-free list (1024 elems, 10% upd)", fig1},
	{"2", "Figure 2: traversal indirection, Get over a 1024-key list", fig2},
	{"3", "Figure 3: throughput scalability (featured blocking structures), M/s by threads", fig3},
	{"4", "Figure 4: per-thread throughput and stddev (fairness, 20 threads)", fig4},
	{"5", "Figure 5: fraction of time waiting for locks (20 threads)", func() { grid(func(m result) float64 { return m.wait }) }},
	{"6", "Figure 6: fraction of requests restarted (20 threads)", func() { grid(func(m result) float64 { return m.restarted }) }},
	{"7", "Figure 7: Zipfian workload s=0.8 (2048 elems, 20 threads, 10% upd)", fig7},
	{"8", "Figure 8: extreme contention (40 threads, 25% upd) vs structure size", fig8},
	{"9", "Figure 9: one thread delayed 1-100µs every 10 updates while holding locks", fig9},
	{"10", "Figure 10: lock-based queue/stack waiting fraction (50/50 enq-deq)", fig10},
	{"t2", "Table 2: fraction of critical sections falling back to locks (32 thr, size 1024)", table2},
	{"t3", "Table 3: TSX-enabled vs default throughput ratio (32 thr, size 1024)", table3},
	{"outliers", "§5.1 outliers: 512-elem list, 40 threads, 10% updates; lock-coupling contrast", outliers},
	{"model", "Section 6: birthday-paradox model (see also cmd/csdsmodel)", model},
}

func main() {
	fig := flag.String("fig", "all", "1|2|3|4|5|6|7|8|9|10|t2|t3|outliers|model|all")
	flag.Parse()
	if !render(*fig) {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

// render prints figure key, or every figure for "all"; false if key names none.
func render(key string) (found bool) {
	for _, f := range figures {
		if key == f.key || key == "all" {
			printf("=== %s ===\n", f.title)
			f.f()
			printf("\n")
			found = true
		}
	}
	return found
}

func printf(format string, a ...any) { fmt.Fprintf(out, format, a...) }

// cell is one paper experiment. adv is the paper adversary: "",
// fault.PaperVictim (Figure 9) or fault.Multiprogram (Tables 2–3); elide
// is the speculative attempts per critical section (0 = plain locks).
type cell struct {
	alg, adv             string
	threads, size, elide int
	u, zipf              float64
}

// fig9Cell is Figure 9's cell: one of 20 workers is delayed holding locks.
func fig9Cell(alg string) cell {
	return cell{alg: alg, threads: 20, size: 2048, u: 0.1, adv: fault.PaperVictim}
}

// multiprogramCell is a Table 2–3 cell: 32 workers under rare context switches.
func multiprogramCell(alg string, u float64, elide int) cell {
	return cell{alg: alg, threads: 32, size: 1024, u: u, adv: fault.Multiprogram, elide: elide}
}

// harnessConfig maps c onto the runtime harness.
func (c cell) harnessConfig() harness.Config {
	cfg := harness.Config{
		Algorithm: c.alg, Threads: c.threads, Duration: *dur, Runs: *runs, ElideAttempts: c.elide,
		Workload: workload.Config{Size: c.size, UpdateRatio: c.u, ZipfS: c.zipf},
	}
	if c.adv != "" {
		cfg.Fault = harness.PaperPlan(c.adv, c.alg)
	}
	return cfg
}

// run measures c on the harness.
func (c cell) run() harness.Result {
	res, err := harness.Run(c.harnessConfig())
	if err != nil { // every cell is declared here: an error is a bug
		panic(err)
	}
	return res
}

// simConfig maps c onto the simulator: the TSX Haswell for multiprogrammed
// cells, else the Xeon; one Ops/Seed policy; Zipf mass over 2*size keys.
func (c cell) simConfig() sim.Config {
	st, ok := sim.ModelFor(c.alg)
	if !ok || c.adv == fault.PaperVictim {
		panic("no sim model for " + c.alg + " under " + c.adv)
	}
	m, multi := sim.PaperXeon(), c.adv == fault.Multiprogram
	if multi {
		m = sim.PaperHaswell()
	}
	var sumP2 float64
	if c.zipf > 0 {
		sumP2 = xrand.NewZipf(int64(2*c.size), c.zipf).SumPSquared()
	}
	return sim.Config{
		Machine: m, Structure: st, Threads: c.threads, Size: c.size, UpdateRatio: c.u, SumP2: sumP2,
		Ops: 5000, ElideAttempts: c.elide, Multiprogram: multi, Seed: 42,
	}
}

// result is what the figures read from either engine.
type result struct{ mops, thrMean, thrStddev, wait, restarted, restarted3, fallback float64 }

// measure runs c on engine e ("run" or "sim").
func (c cell) measure(e string) result {
	if e == "sim" {
		s := sim.Run(c.simConfig())
		return result{s.ThroughputOpsPerSec / 1e6, s.ThroughputOpsPerSec / float64(c.threads), s.PerThreadStddev,
			s.WaitFraction, s.RestartedFrac, s.RestartedFrac3, s.FallbackFrac}
	}
	if c.alg == "queue" || c.alg == "stack" { // Section 7's hotspots are not core.Sets
		return result{wait: queuestack.RunHotspot(c.alg, c.threads, *dur, c.size)}
	}
	r := c.run()
	return result{r.Throughput / 1e6, r.PerThreadMean, r.PerThreadStddev,
		r.WaitFraction, r.RestartedFrac, r.RestartedFrac3, r.FallbackFrac}
}

// engines are the cell engines -engine asks for, in print order.
func engines() []string {
	return map[string][]string{"run": {"run"}, "sim": {"sim"}, "both": {"run", "sim"}}[*engine]
}

// runOnly prints a figure that has no simulator model: under the sim
// engine it says so in one line and runs nothing.
func runOnly(print func()) {
	for _, e := range engines() {
		if e == "run" {
			print()
		} else {
			printf("[engine=sim: no model for this figure; use -engine run]\n")
		}
	}
}

func fig1() {
	threads := map[string][]int{"run": {1, 4, 8, 20, 40}, "sim": {1, 5, 10, 15, 20, 25, 30, 35, 40}}
	for _, e := range engines() {
		printf("[engine=%s]\n%-8s %14s %14s %14s\n", e, "threads", "blocking", "lock-free", "wait-free")
		for _, th := range threads[e] {
			printf("%-8d", th)
			for _, a := range []string{"list/lazy", "list/harris", "list/waitfree"} {
				printf(" %11.3f M/s", cell{alg: a, threads: th, size: 1024, u: 0.1}.measure(e).mops)
			}
			printf("\n")
		}
	}
}

func fig2() {
	runOnly(func() {
		printf("%-36s %10.1f ns/op\n", "blocking (node -> node)", getNs("list/lazy"))
		printf("%-36s %10.1f ns/op\n", "wait-free (node -> box -> node)", getNs("list/waitfree"))
	})
}

// getNs times Get on a list of alg holding the even keys 2..2048, probing
// every odd key between them, for one -dur window: ns per Get.
func getNs(alg string) float64 {
	s, err := core.Build(alg, core.Options{})
	if err != nil {
		panic(err)
	}
	c := core.NewCtx(0)
	for k := core.Key(2); k <= 2048; k += 2 {
		s.Put(c, k, k)
	}
	n, start := 0, time.Now()
	for ; time.Since(start) < *dur; n += 1024 {
		for k := core.Key(1); k < 2048; k += 2 {
			s.Get(c, k)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func fig3() {
	threads := map[string][]int{"run": {20}, "sim": {1, 10, 20, 40}}
	for _, alg := range featured {
		printf("-- %s --\n", alg)
		for _, size := range sizes {
			for _, u := range updates {
				printf("size=%-5d upd=%-4.0f%%:", size, u*100)
				for _, e := range engines() {
					printf("  %s", e)
					for _, th := range threads[e] {
						printf(" %d:%7.2f", th, cell{alg: alg, threads: th, size: size, u: u}.measure(e).mops)
					}
				}
				printf("\n")
			}
		}
	}
}

func fig4() {
	for _, alg := range featured {
		for _, u := range updates {
			printf("%-18s upd=%-4.0f%%:", alg, u*100)
			for _, e := range engines() {
				m := cell{alg: alg, threads: 20, size: 2048, u: u}.measure(e)
				printf("  %s: %10.0f ops/s/thr (stddev %8.0f, %.2f%% of mean)", e, m.thrMean, m.thrStddev, 100*m.thrStddev/m.thrMean)
			}
			printf("\n")
		}
	}
}

// grid prints one metric over the featured structures × sizes × update
// ratios at 20 threads.
func grid(v func(result) float64) {
	for _, alg := range featured {
		for _, size := range sizes {
			printf("%-18s size=%-5d:", alg, size)
			for _, u := range updates {
				printf("  u=%.0f%%", u*100)
				for _, e := range engines() {
					printf(" %s=%.2e", e, v(cell{alg: alg, threads: 20, size: size, u: u}.measure(e)))
				}
			}
			printf("\n")
		}
	}
}

func fig7() {
	printf("%-18s lock-wait frac / restarted frac\n", "structure")
	for _, alg := range featured {
		printf("%-18s", alg)
		for _, e := range engines() {
			m := cell{alg: alg, threads: 20, size: 2048, u: 0.1, zipf: 0.8}.measure(e)
			printf("  %s %.2e / %.2e", e, m.wait, m.restarted)
		}
		printf("\n")
	}
}

func fig8() {
	for _, alg := range featured {
		printf("-- %s --\n%-6s wait frac / restarted>=1 / restarted>3\n", alg, "size")
		for _, size := range []int{16, 32, 64, 128, 256, 512} {
			printf("%-6d", size)
			for _, e := range engines() {
				m := cell{alg: alg, threads: 40, size: size, u: 0.25}.measure(e)
				printf("  %s %.2e / %.2e / %.2e", e, m.wait, m.restarted, m.restarted3)
			}
			printf("\n")
		}
	}
}

func fig9() {
	runOnly(func() {
		printf("%-18s %16s %16s\n", "structure", "lock-wait frac", "restarted frac")
		for _, alg := range featured {
			res := fig9Cell(alg).run()
			printf("%-18s %16.2e %16.2e\n", alg, res.WaitFraction, res.RestartedFrac)
		}
	})
}

func fig10() {
	printf("%-8s %14s %14s\n", "threads", "queue", "stack")
	for _, th := range []int{2, 4, 8, 12, 16, 20} {
		printf("%-8d", th)
		for _, kind := range []string{"queue", "stack"} {
			for _, e := range engines() {
				printf(" %s=%.3f", e, cell{alg: kind, threads: th, size: 1024, u: 1}.measure(e).wait)
			}
		}
		printf("\n")
	}
}

func table2() {
	table("%12.5f", func(alg string, u float64, e string) float64 { return multiprogramCell(alg, u, 5).measure(e).fallback })
}

func table3() {
	table("%12.2f", func(alg string, u float64, e string) float64 {
		return multiprogramCell(alg, u, 5).measure(e).mops / multiprogramCell(alg, u, 0).measure(e).mops
	})
}

// table prints a Table 2–3 grid, update ratios by featured structures,
// once per engine; the sim engine models the paper's TSX Haswell.
func table(format string, v func(alg string, u float64, e string) float64) {
	for _, e := range engines() {
		printf("[engine=%s]\n%-10s %12s %12s %12s %12s\n", e, "upd ratio", "list", "skiplist", "hashtable", "bst")
		for _, u := range []float64{0.2, 0.5, 1.0} {
			printf("%-10.0f", u*100)
			for _, alg := range featured {
				printf(" "+format, v(alg, u, e))
			}
			printf("\n")
		}
	}
}

func outliers() {
	runOnly(func() {
		res := cell{alg: "list/lazy", threads: 40, size: 512, u: 0.1}.run()
		printf("total ops              %d\n", res.TotalOps)
		printf("acquisitions waiting   %.4f%%   [paper: 0.01%%]\n", 100*res.WaitingOpsFrac)
		printf("worst single wait      %v      [paper: < 6µs]\n", time.Duration(res.MaxWaitNs))
		printf("restart histogram      0x:%d 1x:%d 2x:%d 3x:%d >3x:%d   [paper: 2900 once, 9 twice, 0 more]\n",
			res.RestartHist[0], res.RestartHist[1], res.RestartHist[2], res.RestartHist[3],
			res.RestartHist[4]+res.RestartHist[5]+res.RestartHist[6]+res.RestartHist[7])
		printf("list/lockcoupling, 20 threads, 1%% updates   [paper: ~10%% of time waiting]\n")
		for _, size := range sizes {
			m := cell{alg: "list/lockcoupling", threads: 20, size: size, u: 0.01}.measure("run")
			printf("  size=%-5d wait frac %.2e   restarted frac %.2e\n", size, m.wait, m.restarted)
		}
	})
}

func model() {
	h, l := birthday.PaperHashExample(), birthday.PaperListExample()
	printf("hash  p_conflict = %.4f [0.0058]   p_lock = %.2e [5e-6]\n", h.HashConflict(), h.HashTSXFallback())
	printf("list  p_conflict = %.4f [0.0021]   p_lock = %.2e [1e-5]   tsx attempt = %.3f [0.16]\n",
		l.ListConflict(), l.ListTSXFallback(), l.ListTSXConflict())
	l.SumP2 = xrand.NewZipf(int64(l.Size), 0.8).SumPSquared()
	printf("zipf  p_conflict = %.4f [0.0047]\n", l.NonUniformConflict())
}
