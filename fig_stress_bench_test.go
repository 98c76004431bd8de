package csds

import (
	"fmt"
	"testing"
	"time"

	"csds/internal/fault"
	"csds/internal/harness"
	"csds/internal/queuestack"
	"csds/internal/sim"
	"csds/internal/workload"
	"csds/internal/xrand"
)

// ---------------------------------------------------------------------------
// Figure 7: Zipfian workload (s = 0.8), 2048 elements, 20 threads, 10%
// updates — waits stay below 1%, restarts below 0.3%.
// ---------------------------------------------------------------------------

func BenchmarkFig7Run(b *testing.B) {
	for _, alg := range featuredAlgs {
		b.Run("alg="+alg, func(b *testing.B) {
			benchCell(b, harness.Config{
				Algorithm: alg, Threads: 20,
				Workload: workload.Config{Size: 2048, UpdateRatio: 0.1, ZipfS: 0.8},
			})
		})
	}
}

func BenchmarkFig7Sim(b *testing.B) {
	z := xrand.NewZipf(4096, 0.8)
	sp2 := z.SumPSquared()
	for _, alg := range featuredAlgs {
		st, _ := sim.ModelFor(alg)
		b.Run("alg="+alg, func(b *testing.B) {
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = sim.Run(sim.Config{
					Machine: sim.PaperXeon(), Structure: st, Threads: 20,
					Size: 2048, UpdateRatio: 0.1, SumP2: sp2, Ops: 3000, Seed: 7,
				})
			}
			reportSim(b, res)
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 8: extreme contention — 40 threads, 25% updates, structure size
// swept down from 512 to 16. Waits/restarts decay steeply with size.
// ---------------------------------------------------------------------------

func BenchmarkFig8Run(b *testing.B) {
	for _, alg := range featuredAlgs {
		for _, size := range []int{16, 32, 64, 128, 256, 512} {
			b.Run(fmt.Sprintf("alg=%s/size=%d", alg, size), func(b *testing.B) {
				benchCell(b, harness.Config{
					Algorithm: alg, Threads: 40,
					Workload: workload.Config{Size: size, UpdateRatio: 0.25},
				})
			})
		}
	}
}

func BenchmarkFig8Sim(b *testing.B) {
	for _, alg := range featuredAlgs {
		st, _ := sim.ModelFor(alg)
		for _, size := range []int{16, 32, 64, 128, 256, 512} {
			b.Run(fmt.Sprintf("alg=%s/size=%d", alg, size), func(b *testing.B) {
				var res sim.Result
				for i := 0; i < b.N; i++ {
					res = sim.Run(sim.Config{
						Machine: sim.PaperXeon(), Structure: st, Threads: 40,
						Size: size, UpdateRatio: 0.25, Ops: 3000, Seed: 9,
					})
				}
				reportSim(b, res)
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 9: unresponsive threads — one worker is delayed 1–100µs every 10
// updates *while holding locks* (fault.PaperVictim); waits stay ~1%,
// restarts ~0.015%.
// ---------------------------------------------------------------------------

func BenchmarkFig9Run(b *testing.B) {
	for _, alg := range featuredAlgs {
		b.Run("alg="+alg, func(b *testing.B) {
			benchCell(b, harness.Config{
				Algorithm: alg, Threads: 20,
				Workload: workload.Config{Size: 2048, UpdateRatio: 0.1},
				Fault:    harness.PaperPlan(fault.PaperVictim, alg),
			})
		})
	}
}

// ---------------------------------------------------------------------------
// Figure 10: lock-based queue and stack — waiting fraction approaches 1 as
// threads grow (the Section 7 hotspot pathology).
// ---------------------------------------------------------------------------

func BenchmarkFig10Run(b *testing.B) {
	for _, kind := range []string{"queue", "stack"} {
		for _, th := range []int{2, 8, 20} {
			b.Run(fmt.Sprintf("kind=%s/threads=%d", kind, th), func(b *testing.B) {
				// The hotspot pathology needs the workers to outlive a few
				// scheduler timeslices before waits accumulate on a small
				// host, so this cell uses a longer window than benchDur.
				var waitFrac float64
				for i := 0; i < b.N; i++ {
					waitFrac = runHotspot(kind, th, 4*benchDur)
				}
				b.ReportMetric(waitFrac, "waitfrac")
			})
		}
	}
}

func BenchmarkFig10Sim(b *testing.B) {
	for _, kind := range []string{"queue", "stack"} {
		st, _ := sim.ModelFor(kind)
		for _, th := range []int{2, 4, 8, 12, 16, 20} {
			b.Run(fmt.Sprintf("kind=%s/threads=%d", kind, th), func(b *testing.B) {
				var res sim.Result
				for i := 0; i < b.N; i++ {
					res = sim.Run(sim.Config{
						Machine: sim.PaperXeon(), Structure: st, Threads: th,
						Size: 1024, UpdateRatio: 1, Ops: 2000, Seed: 17,
					})
				}
				reportSim(b, res)
			})
		}
	}
}

// runHotspot drives the Section 7 queue/stack workload directly (these are
// not core.Set instances) and returns the measured wait fraction.
func runHotspot(kind string, threads int, dur time.Duration) float64 {
	return queuestack.RunHotspot(kind, threads, dur, 1024)
}

// ---------------------------------------------------------------------------
// Tables 2 and 3: multiprogramming (8 threads per hardware context in the
// paper, simulated here; injected context switches, fault.Multiprogram,
// in the runtime cells) with TSX-style lock elision. Table 2 reports the
// fraction of critical sections that fall back to real locks; Table 3 the
// throughput ratio of elided vs default implementations.
// ---------------------------------------------------------------------------

func BenchmarkTable2Run(b *testing.B) {
	for _, alg := range featuredAlgs {
		for _, u := range []float64{0.2, 0.5, 1.0} {
			b.Run(fmt.Sprintf("alg=%s/upd=%g", alg, u), func(b *testing.B) {
				benchCell(b, harness.Config{
					Algorithm: alg, Threads: 32, ElideAttempts: 5,
					Workload: workload.Config{Size: 1024, UpdateRatio: u},
					Fault:    harness.PaperPlan(fault.Multiprogram, alg),
				})
			})
		}
	}
}

func BenchmarkTable2Sim(b *testing.B) {
	for _, alg := range featuredAlgs {
		st, _ := sim.ModelFor(alg)
		for _, u := range []float64{0.2, 0.5, 1.0} {
			b.Run(fmt.Sprintf("alg=%s/upd=%g", alg, u), func(b *testing.B) {
				var res sim.Result
				for i := 0; i < b.N; i++ {
					res = sim.Run(sim.Config{
						Machine: sim.PaperHaswell(), Structure: st, Threads: 32,
						Size: 1024, UpdateRatio: u, Ops: 4000,
						ElideAttempts: 5, Multiprogram: true, Seed: 23,
					})
				}
				reportSim(b, res)
			})
		}
	}
}

func BenchmarkTable3Run(b *testing.B) {
	for _, alg := range featuredAlgs {
		for _, u := range []float64{0.2, 1.0} {
			for _, elide := range []int{0, 5} {
				b.Run(fmt.Sprintf("alg=%s/upd=%g/elide=%d", alg, u, elide), func(b *testing.B) {
					benchCell(b, harness.Config{
						Algorithm: alg, Threads: 32, ElideAttempts: elide,
						Workload: workload.Config{Size: 1024, UpdateRatio: u},
						Fault:    harness.PaperPlan(fault.Multiprogram, alg),
					})
				})
			}
		}
	}
}

func BenchmarkTable3Sim(b *testing.B) {
	for _, alg := range featuredAlgs {
		st, _ := sim.ModelFor(alg)
		for _, u := range []float64{0.2, 0.5, 1.0} {
			b.Run(fmt.Sprintf("alg=%s/upd=%g", alg, u), func(b *testing.B) {
				var ratio float64
				for i := 0; i < b.N; i++ {
					mk := func(elide int) float64 {
						return sim.Run(sim.Config{
							Machine: sim.PaperHaswell(), Structure: st, Threads: 32,
							Size: 1024, UpdateRatio: u, Ops: 4000,
							ElideAttempts: elide, Multiprogram: true, Seed: 29,
						}).ThroughputOpsPerSec
					}
					ratio = mk(5) / mk(0)
				}
				b.ReportMetric(ratio, "tsx-speedup")
			})
		}
	}
}
