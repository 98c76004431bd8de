// Measurement plumbing shared by the four workloads: the process clock,
// the sliced measured window, per-worker records, process-wide cost
// snapshots, and the reduction of all of it to the end-to-end metrics.
package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

var processStart = time.Now()

// clock is nanoseconds on the process's monotonic clock. Benchmark
// workers, the in-process server's traced connections and the open-loop
// schedule all read this one clock, which is what makes nesting a
// server-side span inside a client-side one meaningful.
func clock() int64 { return int64(time.Since(processStart)) }

// nSlices is how many equal slices a measured window is cut into. Every
// rate and latency metric is the median over slices: on a shared 2-CPU
// host a neighbour's burst spoils one or two slices, not the result.
const nSlices = 10

// window places a run on the clock: warm-up from origin to t0, then
// nSlices slices of length slice.
type window struct {
	origin, t0, slice int64
}

// newWindow starts a window now. The warm-up is two seconds, less on
// windows too short to afford it (tests).
func newWindow(measured time.Duration) window {
	warm := min(2*time.Second, measured/4)
	now := clock()
	return window{origin: now, t0: now + int64(warm), slice: int64(measured) / nSlices}
}

// slot maps a clock reading to its slice: negative during warm-up,
// nSlices or more once the window is over.
func (w window) slot(t int64) int {
	if t < w.t0 {
		return -1
	}
	return int((t - w.t0) / w.slice)
}

func (w window) end() int64 { return w.t0 + nSlices*w.slice }

// sleepUntil parks the caller until the clock reads t.
func sleepUntil(t int64) {
	if d := t - clock(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// paceUntil blocks the caller's thread until the clock reads t, to within
// tens of microseconds. time.Sleep cannot pace an open loop whose gaps
// are ~200 µs: an idle Go scheduler sleeps in epoll_wait, whose timeout
// is whole milliseconds, so every short sleep overshoots by about one. A
// nanosleep(2) on the calling thread, with the thread's timer slack taken
// down from the 50 µs default, wakes within the kernel's own latency. The
// thread setting is made on every call because goroutines change threads.
func paceUntil(t int64) {
	d := t - clock()
	if d <= 0 {
		return
	}
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	ts := syscall.NsecToTimespec(d)
	// An early return (EINTR) only sends the request a little early;
	// the schedule itself is absolute, so the error does not accumulate.
	_ = syscall.Nanosleep(&ts, nil)
}

// family groups timed operations for the per-layer latency rows.
type family int

const (
	famGet family = iota
	famUpdate
	famScan
	famPage
	famBatch
	numFamilies
)

// workerRec is one worker's (or connection's) private record of a
// window. Only its owner writes it until the workers have been joined.
type workerRec struct {
	ops, keys [nSlices]uint64
	lat       [nSlices]hist

	// Whole-window, per operation family (traced attribution).
	fam             [numFamilies]hist
	famOps, famKeys [numFamilies]uint64
	famNs           [numFamilies]uint64
	late            [nSlices]hist // open loop: send time − due time
	failed          uint64        // errors and busy sheds (not counted in ops)
	violations      uint64        // wrong answers

	_ [64]byte
}

// timed records one individually timed operation that ended at clock
// reading end: into the slice's counters (by when) and the family rows.
func (r *workerRec) timed(slot int, f family, ns int64, keys int) {
	r.ops[slot]++
	r.keys[slot] += uint64(keys)
	r.lat[slot].record(ns)
	r.fam[f].record(ns)
	r.famOps[f]++
	r.famKeys[f] += uint64(keys)
	r.famNs[f] += uint64(ns)
}

// procSnap is the process-wide cost reading taken at both ends of a
// measured window.
type procSnap struct {
	cpuNs      int64 // user + system CPU of the whole process (getrusage)
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
	gcCycles   uint32
	heapInuse  uint64
}

func takeSnap() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpuNs:      cpuNow(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPauseNs:  ms.PauseTotalNs,
		gcCycles:   ms.NumGC,
		heapInuse:  ms.HeapInuse,
	}
}

// cpuNow is the user + system CPU time the whole process has used.
func cpuNow() int64 {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid who and pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// bracket sleeps through a window on the coordinating goroutine and
// returns the process snapshots at its two ends and the process CPU
// time at every slice boundary (one getrusage each: ten wake-ups a window).
func (w window) bracket() (a, b procSnap, cpu [nSlices + 1]int64) {
	sleepUntil(w.t0)
	a = takeSnap()
	cpu[0] = a.cpuNs
	for s := 1; s < nSlices; s++ {
		sleepUntil(w.t0 + int64(s)*w.slice)
		cpu[s] = cpuNow()
	}
	sleepUntil(w.end())
	b = takeSnap()
	cpu[nSlices] = b.cpuNs
	return a, b, cpu
}

// measured is everything one window of one workload produced.
type measured struct {
	win      window
	recs     []*workerRec
	a, b     procSnap
	cpu      [nSlices + 1]int64 // process CPU time at the slice boundaries
	heapLive uint64             // HeapInuse after the window, workers joined, one forced GC
}

// spread is a metric's median over slices with the slice quartiles and
// the slices in time order.
type spread struct {
	med, q1, q3 float64
	xs          []float64
}

func quartiles(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		// Linear interpolation between closest ranks (inclusive method).
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return spread{med: at(0.5), q1: at(0.25), q3: at(0.75), xs: xs}
}

func median(xs []float64) float64 { return quartiles(xs).med }

// perSlice reduces the workers' records to one value per slice.
func (m *measured) perSlice(f func(slot int) float64) spread {
	xs := make([]float64, nSlices)
	for s := range xs {
		xs[s] = f(s)
	}
	return quartiles(xs)
}

func (m *measured) rate(pick func(*workerRec, int) uint64) spread {
	secs := float64(m.win.slice) / 1e9
	return m.perSlice(func(s int) float64 {
		var n uint64
		for _, r := range m.recs {
			n += pick(r, s)
		}
		return float64(n) / secs
	})
}

// opsPerSec is the completed-op rate of each slice.
func (m *measured) opsPerSec() spread {
	return m.rate(func(r *workerRec, s int) uint64 { return r.ops[s] })
}

// cpuPerOp is the process CPU time, in µs, each slice spent per op it
// completed. It is reduced by the median over slices like the rates: a
// ratio over the whole window is a mean, and on wire-open, where most of
// the CPU is wake-ups and syscalls, a neighbour's burst on this shared
// host doubles a slice often enough to move a mean by a tenth.
func (m *measured) cpuPerOp() spread {
	return m.perSlice(func(s int) float64 {
		var n uint64
		for _, r := range m.recs {
			n += r.ops[s]
		}
		return float64(m.cpu[s+1]-m.cpu[s]) / 1e3 / float64(max(n, 1))
	})
}

// quantile is the q-quantile, in µs, of each slice's histogram merged
// over workers; pick selects which of a record's sliced histograms.
func (m *measured) quantile(q float64, pick func(*workerRec) *[nSlices]hist) spread {
	return m.perSlice(func(s int) float64 {
		var h hist
		for _, r := range m.recs {
			h.merge(&pick(r)[s])
		}
		return h.quantile(q) / 1e3
	})
}

// tail is lat_p99_us — the median over slices of each slice's p99 — with
// a note saying what it rests on: a p99 is only reported as resolved
// while every slice has ten samples beyond it.
func (m *measured) tail() (p99 float64, note string) {
	least := ^uint64(0)
	for s := 0; s < nSlices; s++ {
		var n uint64
		for _, r := range m.recs {
			n += r.lat[s].n
		}
		least = min(least, n)
	}
	p99 = m.latency(0.99).med
	if q := tailQuantile(least); q < 0.99 {
		return p99, fmt.Sprintf("latency: slices hold as few as %d samples, too few for a p99 (p%.0f is the highest percentile with ten beyond it): lat_p99_us is not resolved at this run length", least, 100*q)
	}
	return p99, fmt.Sprintf("latency: lat_p99_us is the median over %d slices of at least %d samples each", nSlices, least)
}

func (m *measured) latency(q float64) spread {
	return m.quantile(q, func(r *workerRec) *[nSlices]hist { return &r.lat })
}

// opsTotal is the ops the record holds over all slices.
func (r *workerRec) opsTotal() uint64 {
	var n uint64
	for _, c := range r.ops {
		n += c
	}
	return n
}

func (m *measured) opsTotal() uint64 {
	var n uint64
	for _, r := range m.recs {
		n += r.opsTotal()
	}
	return n
}

// familyHist merges one family's whole-window histogram over workers.
func (m *measured) familyHist(f family) *hist {
	h := new(hist)
	for _, r := range m.recs {
		h.merge(&r.fam[f])
	}
	return h
}
