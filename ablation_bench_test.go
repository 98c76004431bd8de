// Ablation benchmarks for the design choices DESIGN.md §5 calls out,
// and the cell helpers the root benchmarks share. The paper's figures
// and tables are not benchmarks: cmd/figures declares and prints them.
//
// Reported custom metrics:
//
//	Mops/s       system throughput (millions of operations per second)
//	waitfrac     fraction of time spent waiting for locks
//	restartfrac  fraction of operations restarted >= once
//	restart3frac fraction restarted more than three times
//	fallbackfrac critical sections falling back to locks
//	thrstddev    per-thread throughput stddev / mean
package csds

import (
	"fmt"
	"testing"
	"time"

	"csds/internal/birthday"
	"csds/internal/harness"
	"csds/internal/sim"
	"csds/internal/workload"
)

// benchDur is the measurement window per harness run inside benchmarks
// (the paper uses 5 s; CI budgets need less — cmd/figures exposes -dur).
const benchDur = 25 * time.Millisecond

// benchCell runs cfg once per b.N (for benchDur unless cfg sets a
// window), reports the last run's metrics and returns that run.
func benchCell(b *testing.B, cfg harness.Config) harness.Result {
	b.Helper()
	if cfg.Duration == 0 {
		cfg.Duration = benchDur
	}
	var res harness.Result
	for i := 0; i < b.N; i++ {
		r, err := harness.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	report(b, res)
	return res
}

func report(b *testing.B, res harness.Result) {
	b.ReportMetric(res.Throughput/1e6, "Mops/s")
	b.ReportMetric(res.WaitFraction, "waitfrac")
	b.ReportMetric(res.RestartedFrac, "restartfrac")
	b.ReportMetric(res.RestartedFrac3, "restart3frac")
	if res.PerThreadMean > 0 {
		b.ReportMetric(res.PerThreadStddev/res.PerThreadMean, "thrstddev")
	}
	if res.FallbackFrac > 0 {
		b.ReportMetric(res.FallbackFrac, "fallbackfrac")
	}
}

func reportSim(b *testing.B, res sim.Result) {
	b.ReportMetric(res.ThroughputOpsPerSec/1e6, "Mops/s")
	b.ReportMetric(res.WaitFraction, "waitfrac")
	b.ReportMetric(res.RestartedFrac, "restartfrac")
	b.ReportMetric(res.RestartedFrac3, "restart3frac")
	if res.FallbackFrac > 0 {
		b.ReportMetric(res.FallbackFrac, "fallbackfrac")
	}
}

// BenchmarkAblationLocks compares lock algorithms on the same featured
// structure workloads, testing the paper's §3.2 claim that simple locks
// (TAS/ticket) suffice for CSDSs and MCS buys nothing.
func BenchmarkAblationLocks(b *testing.B) {
	// The structures hard-wire their paper configurations (TAS for lists,
	// tickets for BST-TK); the ablation exercises the lock primitives
	// directly under CSDS-like short critical sections instead.
	benchLocks(b)
}

// BenchmarkAblationHashGranularity compares per-bucket locks against 16
// coarse stripes under extreme contention (§5.3's granularity remark).
func BenchmarkAblationHashGranularity(b *testing.B) {
	for _, alg := range []string{"hashtable/lazy", "hashtable/striped"} {
		for _, size := range []int{16, 1024} {
			b.Run(fmt.Sprintf("alg=%s/size=%d", alg, size), func(b *testing.B) {
				benchCell(b, harness.Config{
					Algorithm: alg, Threads: 20,
					Workload: workload.Config{Size: size, UpdateRatio: 0.25},
				})
			})
		}
	}
}

// BenchmarkAblationHTMRetries sweeps the speculation budget (§6.4 assumes
// 5 attempts): fallbacks drop as the budget grows.
func BenchmarkAblationHTMRetries(b *testing.B) {
	st := sim.SkipListModel()
	for _, attempts := range []int{1, 3, 5, 10} {
		b.Run(fmt.Sprintf("attempts=%d", attempts), func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = sim.Run(sim.Config{
					Machine: sim.PaperHaswell(), Structure: st, Threads: 32,
					Size: 1024, UpdateRatio: 0.5, Ops: 4000,
					ElideAttempts: attempts, Multiprogram: true, Seed: 31,
				})
			}
			reportSim(b, res)
		})
	}
}

// BenchmarkAblationPhaseRatio sweeps the write-phase share of an update in
// the birthday model (§6.2 assumes ~10%): the conflict probability scales
// accordingly.
func BenchmarkAblationPhaseRatio(b *testing.B) {
	for _, wf := range []float64{0.05, 0.1, 0.2, 0.4} {
		b.Run(fmt.Sprintf("writefrac=%g", wf), func(b *testing.B) {
			var p float64
			for i := 0; i < b.N; i++ {
				s := birthday.PaperListExample()
				s.WriteFrac = wf
				p = s.ListConflict()
			}
			b.ReportMetric(p, "pconflict")
		})
	}
}

// BenchmarkAblationEBR ablates epoch-based reclamation against GC-only
// operation. Since the retire path gained real reclamation callbacks
// the comparison has two sides: the epoch bookkeeping is pure overhead
// on the op path, while recycling retired nodes through the pools pays
// it back in allocation rate and GC pause time — so alongside
// throughput, the cells report retired/reclaimed totals, the pool hit
// fraction, and allocs/op + GC pause, which the ebr=false cells show
// as the all-GC baseline.
func BenchmarkAblationEBR(b *testing.B) {
	for _, ebrOn := range []bool{false, true} {
		b.Run(fmt.Sprintf("ebr=%v", ebrOn), func(b *testing.B) {
			res := benchCell(b, harness.Config{
				Algorithm: "list/lazy", Threads: 8, UseEBR: ebrOn,
				Workload: workload.Config{Size: 512, UpdateRatio: 0.5},
			})
			b.ReportMetric(float64(res.Retired), "retired")
			b.ReportMetric(float64(res.Reclaimed), "reclaimed")
			b.ReportMetric(res.PoolHitFrac, "poolhitfrac")
			b.ReportMetric(res.AllocsPerOp, "allocs/op")
			b.ReportMetric(float64(res.GCPauseNs), "gcpause-ns")
		})
	}
}

// BenchmarkAlgorithmsThroughput is a cross-algorithm sweep: every
// registered algorithm on the paper's default cell (useful for spotting
// regressions and for the Table 1 comparison narrative).
func BenchmarkAlgorithmsThroughput(b *testing.B) {
	for _, name := range Algorithms() {
		b.Run("alg="+name, func(b *testing.B) {
			benchCell(b, harness.Config{
				Algorithm: name, Threads: 8,
				Workload: workload.Config{Size: 512, UpdateRatio: 0.1},
			})
		})
	}
}
