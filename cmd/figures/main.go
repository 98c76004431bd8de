// Command figures regenerates every figure and table of the paper's
// evaluation. Each experiment can be produced by two engines:
//
//	-engine run    the real concurrent implementations measured on this
//	               host (goroutine harness);
//	-engine sim    the calibrated multicore simulator configured as the
//	               paper's machines (20-core Xeon, 8-thread TSX Haswell) —
//	               use this to see the 40-thread *shapes* on small hosts;
//	-engine model  the Section 6 closed-form birthday model (fig=model).
//	-engine both   run followed by sim (default).
//
// Usage:
//
//	figures -fig 1            # Figure 1
//	figures -fig 8 -engine sim
//	figures -fig all -dur 2s -runs 5
//	figures -fig t2           # Table 2; t3 = Table 3; outliers = §5.1
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"csds/internal/birthday"
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

var featured = []string{"list/lazy", "skiplist/herlihy", "hashtable/lazy", "bst/tk"}

func main() {
	fig := flag.String("fig", "all", "1|2|3|4|5|6|7|8|9|10|t2|t3|outliers|model|all")
	flag.Parse()

	figs := map[string]func(){
		"1": fig1, "2": fig2, "3": fig3, "4": fig4, "5": fig5, "6": fig6,
		"7": fig7, "8": fig8, "9": fig9, "10": fig10,
		"t2": table2, "t3": table3, "outliers": outliers, "model": model,
	}
	if *fig == "all" {
		for _, k := range []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "t2", "t3", "outliers", "model"} {
			figs[k]()
			fmt.Println()
		}
		return
	}
	f, ok := figs[*fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
	f()
}

func wantRun() bool { return *engine == "run" || *engine == "both" }
func wantSim() bool { return *engine == "sim" || *engine == "both" }

func runCell(alg string, threads, size int, u, zipf float64) harness.Result {
	return mustRun(harness.Config{
		Algorithm: alg, Threads: threads, Duration: *dur, Runs: *runs,
		Workload: workload.Config{Size: size, UpdateRatio: u, ZipfS: zipf},
	})
}

func mustRun(cfg harness.Config) harness.Result {
	res, err := harness.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return res
}

// fig9Config is Figure 9's cell for alg: one of 20 workers is delayed
// while holding locks (fault.PaperVictim).
func fig9Config(alg string) harness.Config {
	return harness.Config{
		Algorithm: alg, Threads: 20, Duration: *dur, Runs: *runs,
		Workload: workload.Config{Size: 2048, UpdateRatio: 0.1},
		Fault:    harness.PaperPlan(fault.PaperVictim, alg),
	}
}

// multiprogramConfig is the Table 2–3 cell for alg at update ratio u:
// 32 workers under rare context switches (fault.Multiprogram), with
// elide speculative attempts per critical section (0 = plain locks).
func multiprogramConfig(alg string, u float64, elide int) harness.Config {
	return harness.Config{
		Algorithm: alg, Threads: 32, Duration: *dur, Runs: *runs, ElideAttempts: elide,
		Workload: workload.Config{Size: 1024, UpdateRatio: u},
		Fault:    harness.PaperPlan(fault.Multiprogram, alg),
	}
}

func simCell(alg string, threads, size int, u float64) sim.Result {
	st, ok := sim.ModelFor(alg)
	if !ok {
		fmt.Fprintf(os.Stderr, "no sim model for %s\n", alg)
		os.Exit(1)
	}
	return sim.Run(sim.Config{
		Machine: sim.PaperXeon(), Structure: st, Threads: threads,
		Size: size, UpdateRatio: u, Ops: 5000, Seed: 42,
	})
}

func header(s string) { fmt.Printf("=== %s ===\n", s) }

func fig1() {
	header("Figure 1: blocking vs lock-free vs wait-free list (1024 elems, 10% upd)")
	algs := []string{"list/lazy", "list/harris", "list/waitfree"}
	if wantRun() {
		fmt.Println("[engine=run: this host]")
		fmt.Printf("%-8s %14s %14s %14s\n", "threads", "blocking", "lock-free", "wait-free")
		for _, th := range []int{1, 4, 8, 20, 40} {
			fmt.Printf("%-8d", th)
			for _, a := range algs {
				fmt.Printf(" %11.3f M/s", runCell(a, th, 1024, 0.1, 0).Throughput/1e6)
			}
			fmt.Println()
		}
	}
	if wantSim() {
		fmt.Println("[engine=sim: paper's 40-thread Xeon]")
		fmt.Printf("%-8s %14s %14s %14s\n", "threads", "blocking", "lock-free", "wait-free")
		for _, th := range []int{1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 40} {
			fmt.Printf("%-8d", th)
			for _, a := range algs {
				fmt.Printf(" %11.3f M/s", simCell(a, th, 1024, 0.1).ThroughputOpsPerSec/1e6)
			}
			fmt.Println()
		}
	}
}

func fig2() {
	header("Figure 2: traversal indirection (run `go test -bench Fig2` for the microbenchmark)")
	fmt.Println("blocking layout: node -> node -> node            (one hop per element)")
	fmt.Println("wait-free layout: node -> box(next,mark,src) -> node (two hops + descriptor checks)")
}

func fig3() {
	header("Figure 3: throughput scalability (featured blocking structures)")
	for _, alg := range featured {
		fmt.Printf("-- %s --\n", alg)
		for _, size := range []int{512, 2048, 8192} {
			for _, u := range []float64{0.01, 0.1, 0.5} {
				fmt.Printf("size=%-5d upd=%-4.0f%%:", size, u*100)
				if wantRun() {
					fmt.Printf("  run(20thr) %8.3f M/s", runCell(alg, 20, size, u, 0).Throughput/1e6)
				}
				if wantSim() {
					fmt.Printf("  sim:")
					for _, th := range []int{1, 10, 20, 40} {
						fmt.Printf(" %d:%7.2f", th, simCell(alg, th, size, u).ThroughputOpsPerSec/1e6)
					}
					fmt.Printf(" M/s")
				}
				fmt.Println()
			}
		}
	}
}

func fig4() {
	header("Figure 4: per-thread throughput and stddev (fairness, 20 threads)")
	for _, alg := range featured {
		for _, u := range []float64{0.01, 0.1, 0.5} {
			fmt.Printf("%-18s upd=%-4.0f%%:", alg, u*100)
			if wantRun() {
				r := runCell(alg, 20, 2048, u, 0)
				fmt.Printf("  run: %10.0f ops/s/thr (stddev %8.0f)", r.PerThreadMean, r.PerThreadStddev)
			}
			if wantSim() {
				s := simCell(alg, 20, 2048, u)
				mean := s.ThroughputOpsPerSec / 20
				fmt.Printf("  sim: %10.0f ops/s/thr (stddev %8.0f, %.2f%% of mean)",
					mean, s.PerThreadStddev, 100*s.PerThreadStddev/mean)
			}
			fmt.Println()
		}
	}
}

func fig5() {
	header("Figure 5: fraction of time waiting for locks (20 threads)")
	grid(func(alg string, size int, u float64) (float64, float64) {
		var rv, sv float64
		if wantRun() {
			rv = runCell(alg, 20, size, u, 0).WaitFraction
		}
		if wantSim() {
			sv = simCell(alg, 20, size, u).WaitFraction
		}
		return rv, sv
	})
}

func fig6() {
	header("Figure 6: fraction of requests restarted (20 threads)")
	grid(func(alg string, size int, u float64) (float64, float64) {
		var rv, sv float64
		if wantRun() {
			rv = runCell(alg, 20, size, u, 0).RestartedFrac
		}
		if wantSim() {
			sv = simCell(alg, 20, size, u).RestartedFrac
		}
		return rv, sv
	})
}

func grid(cell func(alg string, size int, u float64) (run, sim float64)) {
	for _, alg := range featured {
		for _, size := range []int{512, 2048, 8192} {
			fmt.Printf("%-18s size=%-5d:", alg, size)
			for _, u := range []float64{0.01, 0.1, 0.5} {
				r, s := cell(alg, size, u)
				fmt.Printf("  u=%.0f%%", u*100)
				if wantRun() {
					fmt.Printf(" run=%.2e", r)
				}
				if wantSim() {
					fmt.Printf(" sim=%.2e", s)
				}
			}
			fmt.Println()
		}
	}
}

func fig7() {
	header("Figure 7: Zipfian workload s=0.8 (2048 elems, 20 threads, 10% upd)")
	z := xrand.NewZipf(4096, 0.8)
	fmt.Printf("%-18s %16s %16s\n", "structure", "lock-wait frac", "restarted frac")
	for _, alg := range featured {
		fmt.Printf("%-18s", alg)
		if wantRun() {
			r := runCell(alg, 20, 2048, 0.1, 0.8)
			fmt.Printf("  run %.2e / %.2e", r.WaitFraction, r.RestartedFrac)
		}
		if wantSim() {
			st, _ := sim.ModelFor(alg)
			s := sim.Run(sim.Config{Machine: sim.PaperXeon(), Structure: st, Threads: 20,
				Size: 2048, UpdateRatio: 0.1, SumP2: z.SumPSquared(), Ops: 5000, Seed: 42})
			fmt.Printf("  sim %.2e / %.2e", s.WaitFraction, s.RestartedFrac)
		}
		fmt.Println()
	}
}

func fig8() {
	header("Figure 8: extreme contention (40 threads, 25% upd) vs structure size")
	for _, alg := range featured {
		fmt.Printf("-- %s --\n", alg)
		fmt.Printf("%-6s %22s %22s %14s\n", "size", "wait frac (run/sim)", "restarted>=1 (run/sim)", "restarted>3")
		for _, size := range []int{16, 32, 64, 128, 256, 512} {
			var r harness.Result
			var s sim.Result
			if wantRun() {
				r = runCell(alg, 40, size, 0.25, 0)
			}
			if wantSim() {
				st, _ := sim.ModelFor(alg)
				s = sim.Run(sim.Config{Machine: sim.PaperXeon(), Structure: st, Threads: 40,
					Size: size, UpdateRatio: 0.25, Ops: 5000, Seed: 42})
			}
			fmt.Printf("%-6d %10.2e/%-10.2e %10.2e/%-10.2e %6.2e/%-6.2e\n",
				size, r.WaitFraction, s.WaitFraction,
				r.RestartedFrac, s.RestartedFrac, r.RestartedFrac3, s.RestartedFrac3)
		}
	}
}

func fig9() {
	header("Figure 9: one thread delayed 1-100µs every 10 updates while holding locks")
	fmt.Printf("%-18s %16s %16s\n", "structure", "lock-wait frac", "restarted frac")
	for _, alg := range featured {
		res := mustRun(fig9Config(alg))
		fmt.Printf("%-18s %16.2e %16.2e\n", alg, res.WaitFraction, res.RestartedFrac)
	}
}

func fig10() {
	header("Figure 10: lock-based queue/stack waiting fraction (50/50 enq-deq)")
	fmt.Printf("%-8s %14s %14s\n", "threads", "queue", "stack")
	for _, th := range []int{2, 4, 8, 12, 16, 20} {
		fmt.Printf("%-8d", th)
		for _, kind := range []string{"queue", "stack"} {
			if wantRun() {
				w := queuestack.RunHotspot(kind, th, *dur, 1024)
				fmt.Printf("  run=%.3f", w)
			}
			if wantSim() {
				st, _ := sim.ModelFor(kind)
				s := sim.Run(sim.Config{Machine: sim.PaperXeon(), Structure: st, Threads: th,
					Size: 1024, UpdateRatio: 1, Ops: 3000, Seed: 42})
				fmt.Printf(" sim=%.3f", s.WaitFraction)
			}
		}
		fmt.Println()
	}
}

func table2() {
	header("Table 2: fraction of critical sections falling back to locks (32 thr, size 1024)")
	fmt.Printf("%-10s %12s %12s %12s %12s\n", "upd ratio", "list", "skiplist", "hashtable", "bst")
	for _, u := range []float64{0.2, 0.5, 1.0} {
		fmt.Printf("%-10.0f", u*100)
		for _, alg := range []string{"list/lazy", "skiplist/herlihy", "hashtable/lazy", "bst/tk"} {
			if *engine == "run" {
				fmt.Printf(" %12.5f", mustRun(multiprogramConfig(alg, u, 5)).FallbackFrac)
			} else {
				st, _ := sim.ModelFor(alg)
				s := sim.Run(sim.Config{Machine: sim.PaperHaswell(), Structure: st, Threads: 32,
					Size: 1024, UpdateRatio: u, Ops: 6000, ElideAttempts: 5, Multiprogram: true, Seed: 42})
				fmt.Printf(" %12.5f", s.FallbackFrac)
			}
		}
		fmt.Println()
	}
}

func table3() {
	header("Table 3: TSX-enabled vs default throughput ratio (32 thr, size 1024)")
	fmt.Printf("%-10s %12s %12s %12s %12s\n", "upd ratio", "list", "skiplist", "hashtable", "bst")
	for _, u := range []float64{0.2, 0.5, 1.0} {
		fmt.Printf("%-10.0f", u*100)
		for _, alg := range []string{"list/lazy", "skiplist/herlihy", "hashtable/lazy", "bst/tk"} {
			if *engine == "run" {
				mk := func(elide int) float64 {
					return mustRun(multiprogramConfig(alg, u, elide)).Throughput
				}
				fmt.Printf(" %12.2f", mk(5)/mk(0))
			} else {
				st, _ := sim.ModelFor(alg)
				mk := func(elide int) float64 {
					return sim.Run(sim.Config{Machine: sim.PaperHaswell(), Structure: st, Threads: 32,
						Size: 1024, UpdateRatio: u, Ops: 6000, ElideAttempts: elide, Multiprogram: true, Seed: 42}).ThroughputOpsPerSec
				}
				fmt.Printf(" %12.2f", mk(5)/mk(0))
			}
		}
		fmt.Println()
	}
}

func outliers() {
	header("§5.1 outliers: 512-elem list, 40 threads, 10% updates")
	res := runCell("list/lazy", 40, 512, 0.1, 0)
	fmt.Printf("total ops              %d\n", res.TotalOps)
	fmt.Printf("acquisitions waiting   %.4f%%   [paper: 0.01%%]\n", 100*res.WaitingOpsFrac)
	fmt.Printf("worst single wait      %v      [paper: < 6µs]\n", time.Duration(res.MaxWaitNs))
	fmt.Printf("restart histogram      0x:%d 1x:%d 2x:%d 3x:%d >3x:%d   [paper: 2900 once, 9 twice, 0 more]\n",
		res.RestartHist[0], res.RestartHist[1], res.RestartHist[2], res.RestartHist[3],
		res.RestartHist[4]+res.RestartHist[5]+res.RestartHist[6]+res.RestartHist[7])
}

func model() {
	header("Section 6: birthday-paradox model (see also cmd/csdsmodel)")
	h := birthday.PaperHashExample()
	l := birthday.PaperListExample()
	z := l
	z.SumP2 = xrand.NewZipf(int64(z.Size), 0.8).SumPSquared()
	fmt.Printf("hash  p_conflict = %.4f [0.0058]   p_lock = %.2e [5e-6]\n", h.HashConflict(), h.HashTSXFallback())
	fmt.Printf("list  p_conflict = %.4f [0.0021]   p_lock = %.2e [1e-5]   tsx attempt = %.3f [0.16]\n",
		l.ListConflict(), l.ListTSXFallback(), l.ListTSXConflict())
	fmt.Printf("zipf  p_conflict = %.4f [0.0047]\n", z.NonUniformConflict())
}
