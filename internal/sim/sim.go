// Package sim is a model-driven multicore simulator used to regenerate the
// *shapes* of the paper's figures on hardware that cannot reproduce them
// natively (this environment exposes a single CPU; the paper used a
// 2-socket, 20-core/40-thread Xeon and a 4-core/8-thread TSX Haswell —
// see DESIGN.md §1 for the substitution rationale).
//
// The simulator advances simulated threads op by op (Monte Carlo over the
// same random streams as the runtime harness). Each operation's duration
// is assembled from a structure cost model (expected parse hops, write
// phase, locks per update) and a machine model (hop latency, cache-
// coherence degradation with active threads, cross-socket penalty,
// hyperthread sharing, multiprogramming quanta). Conflicts are sampled
// from the Section 6 birthday terms, so the simulator and the analytic
// model agree by construction on *why* blocking CSDSs behave practically
// wait-free: the conflict probability is simply small.
//
// The simulator is calibrated for shape, not absolute nanoseconds: who
// wins, by what rough factor, and where the knees fall.
package sim

import (
	"math"

	"csds/internal/birthday"
	"csds/internal/xrand"
)

// Machine describes the simulated host.
type Machine struct {
	Cores       int     // physical cores
	HWThreads   int     // hardware contexts (2 per core when SMT)
	SocketCores int     // cores per socket
	HopNs       float64 // latency of one pointer hop, single-threaded
	// CrossSocket is the extra hop cost factor once the second socket is
	// in use (the slope change past 10 threads in Figure 3).
	CrossSocket float64
	// SMTPenalty is the per-thread slowdown when both hardware contexts
	// of a core are busy.
	SMTPenalty float64
	// InvalidationFactor scales how much update traffic degrades
	// traversals via coherence misses.
	InvalidationFactor float64
	// QuantumNs / SwapNs model the multiprogrammed scheduler: a thread
	// runs ~Quantum then is off-CPU ~Swap when threads exceed HWThreads
	// (§5.4 measured ~12 ms on / ~37 ms off at 4 threads/context).
	QuantumNs float64
	SwapNs    float64
}

// PaperXeon models the 20-core Ivy Bridge of Sections 3–5.
func PaperXeon() Machine {
	return Machine{
		Cores: 20, HWThreads: 40, SocketCores: 10,
		HopNs: 6, CrossSocket: 0.9, SMTPenalty: 0.35,
		InvalidationFactor: 2.2,
		QuantumNs:          12e6, SwapNs: 37e6,
	}
}

// PaperHaswell models the 4-core TSX Haswell of §5.4 (Tables 2–3).
func PaperHaswell() Machine {
	return Machine{
		Cores: 4, HWThreads: 8, SocketCores: 4,
		HopNs: 5, CrossSocket: 0, SMTPenalty: 0.3,
		InvalidationFactor: 2.0,
		QuantumNs:          12e6, SwapNs: 37e6,
	}
}

// Structure is a cost/conflict model for one data-structure family.
type Structure struct {
	Name string
	// Hops returns the expected parse-phase pointer hops for a structure
	// of the given size.
	Hops func(size int) float64
	// WriteNs is the write-phase duration excluding lock transfer costs.
	WriteNs float64
	// OverheadNs is the fixed per-operation cost (hashing, call overhead,
	// key generation) independent of the traversal.
	OverheadNs float64
	// Locks is the average number of locks an update takes.
	Locks float64
	// B is the Section 6 collision term for k concurrent writers.
	B func(k, n int) float64
	// BTSX is the elided collision term (readers abort writers too).
	BTSX func(k, n, t int) float64
	// Waits: conflicts manifest as lock waiting (true) or restarts
	// (false — trylock/optimistic designs like BST-TK).
	Waits bool
	// Restarts: conflicts can also restart the parse phase (validation
	// failure designs).
	Restarts bool
	// TraversalFactor multiplies hop cost (wait-free indirection: ~2x,
	// Figure 2).
	TraversalFactor float64
	// SerializedUpdates: updates serialize on one hotspot (queues/stacks,
	// COW) — Section 7.
	SerializedUpdates bool
}

// Phases returns one operation's parse and write phase durations on a
// structure of size elements at hop latency hopNs, and Equation 2's
// write-phase fraction fw at update ratio u, from those durations. A
// SerializedUpdates hotspot makes every operation an update on one
// lock, so its fw ignores u.
func (s Structure) Phases(size int, hopNs, u float64) (parseNs, writeNs, fw float64) {
	parseNs = s.OverheadNs + s.Hops(size)*hopNs*s.TraversalFactor
	writeNs = s.WriteNs + 2*hopNs*s.Locks // lock-word transfers
	updateNs := parseNs + writeNs
	if s.SerializedUpdates {
		return parseNs, writeNs, writeNs / updateNs
	}
	return parseNs, writeNs, birthday.FUpdate(u, updateNs, parseNs) * writeNs / updateNs
}

// The structure models used by the figures.

// ListModel is the lazy linked list.
func ListModel() Structure {
	return Structure{
		Name: "list", Hops: func(n int) float64 { return float64(n) / 2 },
		WriteNs: 40, OverheadNs: 110, Locks: 2, B: birthday.BLinkedList, BTSX: birthday.BLinkedListTSX,
		Waits: true, Restarts: true, TraversalFactor: 1,
	}
}

// HarrisListModel is the lock-free list (same traversal, CAS updates, no
// waiting).
func HarrisListModel() Structure {
	s := ListModel()
	s.Name = "list-lf"
	s.Waits = false
	s.WriteNs = 45
	return s
}

// WaitFreeListModel adds the descriptor indirection of Figure 2: roughly
// twice the pointer chasing plus helping overhead.
func WaitFreeListModel() Structure {
	s := ListModel()
	s.Name = "list-wf"
	s.Waits = false
	s.TraversalFactor = 2.05
	s.WriteNs = 160 // descriptor publish + phase bookkeeping
	return s
}

// SkipListModel is the Herlihy optimistic skip list.
func SkipListModel() Structure {
	return Structure{
		Name: "skiplist", Hops: func(n int) float64 { return 1.6 * math.Log2(float64(n)+2) },
		WriteNs: 90, OverheadNs: 110, Locks: 3.5, B: birthday.BLinkedList, BTSX: birthday.BLinkedListTSX,
		Waits: true, Restarts: true, TraversalFactor: 1,
	}
}

// HashModel is the per-bucket-lock lazy hash table (load factor 1).
func HashModel() Structure {
	return Structure{
		Name: "hashtable", Hops: func(int) float64 { return 1.6 },
		WriteNs: 35, OverheadNs: 110, Locks: 1, B: birthday.BHashTable, BTSX: birthday.BHashTableTSX,
		Waits: true, Restarts: false, TraversalFactor: 1,
	}
}

// BSTModel is BST-TK: trylocks, restarts instead of waits.
func BSTModel() Structure {
	return Structure{
		Name: "bst", Hops: func(n int) float64 { return 1.3 * math.Log2(float64(n)+2) },
		WriteNs: 50, OverheadNs: 110, Locks: 1.5, B: birthday.BLinkedList, BTSX: birthday.BLinkedListTSX,
		Waits: false, Restarts: true, TraversalFactor: 1,
	}
}

// QueueModel / StackModel: single-hotspot structures (Section 7).
func QueueModel() Structure {
	return Structure{
		Name: "queue", Hops: func(int) float64 { return 1 },
		WriteNs: 30, OverheadNs: 110, Locks: 1, Waits: true, TraversalFactor: 1,
		SerializedUpdates: true,
		B:                 func(k, n int) float64 { return 1 }, // all writers share the hotspot
	}
}

// StackModel is the single-lock stack.
func StackModel() Structure {
	s := QueueModel()
	s.Name = "stack"
	return s
}

// ModelFor maps registry kinds/names to models.
func ModelFor(kind string) (Structure, bool) {
	switch kind {
	case "list", "list/lazy":
		return ListModel(), true
	case "list/harris":
		return HarrisListModel(), true
	case "list/waitfree":
		return WaitFreeListModel(), true
	case "skiplist", "skiplist/herlihy":
		return SkipListModel(), true
	case "hashtable", "hashtable/lazy":
		return HashModel(), true
	case "bst", "bst/tk":
		return BSTModel(), true
	case "queue":
		return QueueModel(), true
	case "stack":
		return StackModel(), true
	}
	return Structure{}, false
}

// Config is one simulated experiment cell.
type Config struct {
	Machine     Machine
	Structure   Structure
	Threads     int
	Size        int
	UpdateRatio float64
	// SumP2 is the workload collision mass (0 = uniform over 2*Size keys;
	// the structure holds Size of them, matching §3.3).
	SumP2 float64
	// Ops is the number of operations simulated per thread.
	Ops int
	// ElideAttempts > 0 simulates TSX lock elision with that budget.
	ElideAttempts int
	// Multiprogram forces scheduler quanta even when Threads <= HWThreads.
	Multiprogram bool
	Seed         uint64
}

// Result carries the simulated metrics (same meanings as harness.Result).
type Result struct {
	ThroughputOpsPerSec float64
	PerThread           []float64
	PerThreadStddev     float64
	WaitFraction        float64
	RestartedFrac       float64
	RestartedFrac3      float64
	FallbackFrac        float64
	AbortFrac           float64 // speculative attempts that aborted
}

// effectiveHop returns the degraded hop latency for t active threads.
func (m Machine) effectiveHop(t int, updateRatio float64) float64 {
	hop := m.HopNs
	active := float64(t)
	if active > float64(m.HWThreads) {
		active = float64(m.HWThreads)
	}
	// Coherence pressure: update traffic invalidates traversal caches.
	hop *= 1 + m.InvalidationFactor*updateRatio*active/float64(m.HWThreads)
	// Second socket in play.
	if m.SocketCores > 0 && t > m.SocketCores {
		frac := math.Min(1, float64(t-m.SocketCores)/float64(m.SocketCores))
		hop *= 1 + m.CrossSocket*frac
	}
	// SMT sharing once threads exceed physical cores.
	if t > m.Cores {
		frac := math.Min(1, float64(t-m.Cores)/float64(m.Cores))
		hop *= 1 + m.SMTPenalty*frac
	}
	return hop
}

// Run simulates the cell.
func Run(cfg Config) Result {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 20000
	}
	if cfg.Size <= 0 {
		cfg.Size = 1024
	}
	m := cfg.Machine
	st := cfg.Structure
	t := cfg.Threads
	rng := xrand.New(cfg.Seed + 0x5EED)

	// Self-consistent write-phase fraction (Equation 2 with the simulated
	// durations).
	parseNs, writeNs, fw := st.Phases(cfg.Size, m.effectiveHop(t, cfg.UpdateRatio), cfg.UpdateRatio)

	// Per-update conflict probability: some other thread is in a
	// conflicting write phase. Expected concurrent writers among the
	// other t-1 threads is (t-1)*fw; sample k ~ binomial via normal-ish
	// approximation per op is too slow — use the closed form instead.
	var pConf float64
	if cfg.ElideAttempts > 0 && st.BTSX != nil {
		pConf = birthday.PConflict(t, fw, func(k int) float64 { return st.BTSX(k, cfg.Size, t) })
	} else {
		pConf = birthday.PConflict(t, fw, func(k int) float64 { return st.B(k, cfg.Size) })
	}
	if cfg.SumP2 > 0 {
		// Non-uniform workloads: blend toward the Poisson term.
		pNU := birthday.PConflict(t, fw, func(k int) float64 { return birthday.BNonUniform(k, cfg.SumP2) })
		if pNU > pConf {
			pConf = pNU
		}
	}
	if st.SerializedUpdates && t > 1 {
		pConf = 1 // hotspot: concurrent updates always collide
	}

	// Multiprogramming: probability a critical section is interrupted and
	// the off-CPU time a lock holder imposes on waiters.
	multi := cfg.Multiprogram || t > m.HWThreads
	runnable := 1.0
	pPreemptInCS := 0.0
	pHeldBySwapped := 0.0
	if multi {
		over := float64(t) / float64(m.HWThreads)
		if over < 1 {
			over = 1
		}
		runnable = 1 / over
		pPreemptInCS = writeNs / m.QuantumNs
		// Lock-holder preemption (lock mode): the probability that the
		// window my update needs is currently held by a swapped-out
		// thread — (t-1) peers, each in a write phase fw of the time,
		// off-CPU (1-runnable) of the time, hitting my st.Locks/size
		// neighbourhood.
		pHeldBySwapped = float64(t-1) * fw * (1 - runnable) * st.Locks / float64(cfg.Size)
		if pHeldBySwapped > 1 {
			pHeldBySwapped = 1
		}
	}

	perThread := make([]float64, t)
	var totalWaitNs, totalBusyNs float64
	var ops, restartedOps, restarted3Ops, fallbacks, csCount, attempts, aborts float64

	opsPerThread := cfg.Ops
	for w := 0; w < t; w++ {
		var busy, waiting float64
		for i := 0; i < opsPerThread; i++ {
			isUpdate := rng.Bool(cfg.UpdateRatio) || st.SerializedUpdates
			if !isUpdate {
				busy += parseNs // a read is its parse phase
				ops++
				continue
			}
			// Update path.
			restarts := 0
			opNs := parseNs
			if cfg.ElideAttempts > 0 {
				csCount++
				committed := false
				for a := 0; a < cfg.ElideAttempts; a++ {
					attempts++
					pAbort := pConf + pPreemptInCS
					if !rng.Bool(pAbort) {
						committed = true
						opNs += writeNs
						break
					}
					aborts++
					opNs += writeNs * 0.6 // wasted attempt
				}
				if !committed {
					fallbacks++
					opNs += writeNs // pessimistic completion
				}
			} else {
				// Conflicts: waits and/or restarts. A conflicting writer
				// blocks us for part of its remaining write phase.
				for rng.Bool(pConf) && restarts < 64 {
					if st.Waits {
						w := writeNs * (0.1 + 0.8*rng.Float64())
						waiting += w
						opNs += w
					}
					if !st.Restarts {
						break
					}
					restarts++
					opNs += parseNs // redo the parse phase
				}
				if rng.Bool(pHeldBySwapped) {
					// Lock-holder preemption. The full swap period is not
					// charged: the OS runs other work meanwhile and wall
					// clock is already stretched by 1/runnable, so the
					// charge models only the extra serialization a waiter
					// experiences (calibrated against Table 3's measured
					// ratios; multi-lock updates convoy harder).
					w := m.QuantumNs * 0.003 * st.Locks * (0.5 + rng.Float64())
					if st.Waits {
						waiting += w
					} else {
						// Trylock designs burn the time as a restart
						// storm instead of blocking.
						restarts += 2
					}
					opNs += w
				}
				opNs += writeNs
				if st.SerializedUpdates && t > 1 {
					// Steady-state queueing on the hotspot: each op waits
					// for roughly the (t-1) other critical sections times
					// utilization.
					w := writeNs * float64(t-1) * rng.Float64()
					waiting += w
					opNs += w
				}
			}
			busy += opNs
			ops++
			if restarts >= 1 {
				restartedOps++
			}
			if restarts > 3 {
				restarted3Ops++
			}
		}
		// Multiprogramming stretches wall-clock by the runnable fraction.
		wall := busy / runnable
		perThread[w] = float64(opsPerThread) / (wall / 1e9)
		totalBusyNs += busy
		totalWaitNs += waiting
	}

	res := Result{PerThread: perThread}
	var sum, sum2 float64
	for _, p := range perThread {
		sum += p
		sum2 += p * p
	}
	mean := sum / float64(t)
	res.ThroughputOpsPerSec = sum
	res.PerThreadStddev = math.Sqrt(math.Max(0, sum2/float64(t)-mean*mean))
	if totalBusyNs > 0 {
		res.WaitFraction = totalWaitNs / totalBusyNs
	}
	if ops > 0 {
		res.RestartedFrac = restartedOps / ops
		res.RestartedFrac3 = restarted3Ops / ops
	}
	if csCount > 0 {
		res.FallbackFrac = fallbacks / csCount
	}
	if attempts > 0 {
		res.AbortFrac = aborts / attempts
	}
	return res
}
