// Per-layer attribution for the in-process workloads. Two sources: the
// counters the program itself keeps in the stats.Thread the benchmark put
// in its Ctx, and differential cells — the identical pre-generated op
// stream, one worker, against two public configurations that differ by
// one layer. Layers the benchmark cannot see inside are priced that way
// until in-program tracing exists.
package main

import (
	"runtime"
	"time"

	"csds/internal/ebr"
	"csds/internal/stats"
)

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counterLayers reads the rows that come from a window's own counters:
// lock waiting, restarts, retries, page pulls, reclamation, GC.
func counterLayers(L map[string]float64, st *stats.Thread, m *measured, retired, reclaimed uint64) {
	L["locks.wait_frac"] = st.WaitFraction()
	L["locks.waiting_acq_frac"] = ratio(st.LockWaits, st.LockAcqs)
	L["locks.max_wait_us"] = float64(st.MaxWaitNs) / 1e3
	var restarted, completed uint64
	for k, n := range st.RestartedOps {
		completed += n
		if k > 0 {
			restarted += n
		}
	}
	L["core.restarted_frac"] = ratio(restarted, completed)
	L["core.scan_retry_frac"] = ratio(st.ScanRetries, st.Scans)
	L["core.cursor_retry_frac"] = ratio(st.CursorRetries, st.Pages)
	L["combinator.page_pulls_per_page"] = ratio(st.PagePulls, st.Pages)
	L["combinator.page_overcollect"] = ratio(st.PagePullKeys, st.PageKeys)
	L["combinator.combine_frac"] = ratio(st.CombinedBatches, st.Batches)
	L["ebr.retired"] = float64(retired)
	L["ebr.reclaimed"] = float64(reclaimed)
	L["ebr.reclaim_lag"] = ratio(retired-reclaimed, retired)
	L["ebr.pool_hit_frac"] = st.PoolHitFraction()
	runtimeLayers(L, m)
}

// runtimeLayers prices the garbage collector over a measured window.
func runtimeLayers(L map[string]float64, m *measured) {
	secs := float64(nSlices*m.win.slice) / 1e9
	L["runtime.gc_pause_ms_per_s"] = float64(m.b.gcPauseNs-m.a.gcPauseNs) / 1e6 / secs
	L["runtime.gc_cycles_per_s"] = float64(m.b.gcCycles-m.a.gcCycles) / secs
	L["runtime.bytes_per_op"] = ratio(m.b.allocBytes-m.a.allocBytes, m.opsTotal())
}

// familyLayers reports the p50/p99 of the scan, page and batch calls as
// the benchmark's spans around them saw them.
func familyLayers(L map[string]float64, m *measured) {
	for f, name := range map[family]string{famScan: "scan", famPage: "page", famBatch: "batch"} {
		h := m.familyHist(f)
		L["core."+name+"_p50_us"] = h.quantile(0.5) / 1e3
		L["core."+name+"_p99_us"] = h.quantile(0.99) / 1e3
	}
}

// cell is one side of a differential measurement: one worker over one
// configuration, built fresh and prefilled. Cells being compared run in
// short alternating segments (interleave), because this host's speed
// drifts by ±10 % over a minute and a difference of two runs made one
// after the other would mostly measure the drift.
type cell struct {
	w    *inprocWorker
	dom  *ebr.Domain
	loop func(*inprocWorker, window)

	nsPerOp      []float64 // one per segment
	ops, mallocs uint64    // over all segments
}

func newCell(spec string, useEBR, useStats bool, keys []int64, ring []op, loop func(*inprocWorker, window)) (*cell, error) {
	c := &cell{loop: loop}
	if useEBR {
		c.dom = ebr.NewDomain()
	}
	set, err := buildSet(spec, c.dom, keys)
	if err != nil {
		return nil, err
	}
	c.w = newInprocWorker(0, set, c.dom, ring)
	if !useStats {
		c.w.ctx.Stats = nil
	}
	return c, nil
}

// segment runs the cell's loop for d more, resuming its op stream.
func (c *cell) segment(d time.Duration) {
	opsBefore := c.w.rec.opsTotal()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	now := clock()
	c.loop(c.w, window{origin: now, t0: now, slice: int64(d) / nSlices})
	elapsed := clock() - now
	runtime.ReadMemStats(&after)
	ops := c.w.rec.opsTotal() - opsBefore
	c.ops += ops
	c.mallocs += after.Mallocs - before.Mallocs
	c.nsPerOp = append(c.nsPerOp, ratio(uint64(elapsed), ops))
}

// cellRounds is how many segments each cell of a comparison gets.
const cellRounds = 6

// interleave gives every cell cellRounds segments, round-robin, within
// budget, then retires the cells' reclamation records.
func interleave(budget time.Duration, cells ...*cell) {
	d := budget / time.Duration(cellRounds*len(cells))
	for r := 0; r < cellRounds; r++ {
		for _, c := range cells {
			c.segment(d)
		}
	}
	for _, c := range cells {
		if c.dom != nil {
			c.w.ctx.Epoch.Unregister()
			quiesce(c.dom)
		}
	}
}

// minus is the median over rounds of the paired difference c − base in
// ns per op: each pair ran back to back, so the host's drift cancels.
func (c *cell) minus(base *cell) float64 {
	diffs := make([]float64, len(c.nsPerOp))
	for r := range diffs {
		diffs[r] = c.nsPerOp[r] - base.nsPerOp[r]
	}
	return median(diffs)
}

func (c *cell) allocsPerOp() float64 { return ratio(c.mallocs, c.ops) }

// famNsPerKey is the time a cell spent in the given families per key
// they touched, over all its segments.
func (c *cell) famNsPerKey(fams ...family) float64 {
	var ns, keys uint64
	for _, f := range fams {
		ns += c.w.rec.famNs[f]
		keys += c.w.rec.famKeys[f]
	}
	return ratio(ns, keys)
}

// spinFor calls step in batches of 1024 until d has passed and returns
// the time per call: the shape of every micro-cell here.
func spinFor(d time.Duration, step func()) float64 {
	start := clock()
	deadline := start + int64(d)
	n := 0
	for now := start; now < deadline; now = clock() {
		for j := 0; j < 1024; j++ {
			step()
		}
		n += 1024
	}
	return float64(clock()-start) / float64(n)
}

// loadgenNsPerOp prices the generator alone: the ring read and decode
// the measured loops do per op, into a sink that does nothing.
func loadgenNsPerOp(ring []op, d time.Duration) float64 {
	var sink int64
	i := 0
	ns := spinFor(d, func() {
		o := ring[i]
		sink += o.key() + int64(o.kind())
		if i++; i == len(ring) {
			i = 0
		}
	})
	runtime.KeepAlive(sink)
	return ns
}

// enterExitNs times bare Record.Enter/Exit pairs on a private domain.
func enterExitNs(d time.Duration) float64 {
	rec := ebr.NewDomain().Register()
	defer rec.Unregister()
	return spinFor(d, func() {
		rec.Enter()
		rec.Exit()
	})
}

// pointLayers attributes inproc-point: leaf, combinator crossing, EBR
// bracket and stats slot by differential cells over the worker-0 stream.
func pointLayers(L map[string]float64, _ uint64, keys []int64, ring []op, budget time.Duration) error {
	micro := budget / 20
	mk := func(spec string, useEBR, useStats bool) (*cell, error) {
		return newCell(spec, useEBR, useStats, keys, ring, (*inprocWorker).runPoint)
	}
	leaf, err := mk("hashtable/lazy", false, true)
	if err != nil {
		return err
	}
	one, err := mk("sharded(1,hashtable/lazy)", false, true)
	if err != nil {
		return err
	}
	plain, err := mk(pointSpec, false, true)
	if err != nil {
		return err
	}
	withEBR, err := mk(pointSpec, true, true)
	if err != nil {
		return err
	}
	noStats, err := mk(pointSpec, false, false)
	if err != nil {
		return err
	}
	interleave(budget-2*micro, leaf, one, plain, withEBR, noStats)
	L["hashtable.get_p50_ns"] = leaf.w.rec.fam[famGet].quantile(0.5)
	L["hashtable.get_p99_ns"] = leaf.w.rec.fam[famGet].quantile(0.99)
	L["hashtable.update_p50_ns"] = leaf.w.rec.fam[famUpdate].quantile(0.5)
	L["combinator.cross_ns_per_op"] = one.minus(leaf)
	L["ebr.bracket_ns_per_op"] = withEBR.minus(plain)
	L["stats.record_ns_per_op"] = plain.minus(noStats)
	L["ebr.enter_exit_ns"] = enterExitNs(micro)
	L["loadgen.ns_per_op"] = loadgenNsPerOp(ring, micro)
	return nil
}

// rangeLayers attributes inproc-range: the bare second leaf on a point
// stream and on the range stream, and the 32-way composite over it on
// the same range stream — the difference is merge and grouping.
func rangeLayers(L map[string]float64, seed uint64, keys []int64, ring []op, budget time.Duration) error {
	micro := budget / 20
	points := genOps(newRng(seed, 0x70), 1<<18, &pointMix, nil)
	leafPoint, err := newCell("skiplist/herlihy", true, true, keys, points, (*inprocWorker).runPoint)
	if err != nil {
		return err
	}
	leaf, err := newCell("skiplist/herlihy", true, true, keys, ring, (*inprocWorker).runRange)
	if err != nil {
		return err
	}
	wide, err := newCell(rangeSpec, true, true, keys, ring, (*inprocWorker).runRange)
	if err != nil {
		return err
	}
	interleave(budget-2*micro, leafPoint, leaf, wide)
	L["skiplist.get_p50_ns"] = leafPoint.w.rec.fam[famGet].quantile(0.5)
	L["skiplist.update_p50_ns"] = leafPoint.w.rec.fam[famUpdate].quantile(0.5)
	L["skiplist.scan_ns_per_key"] = leaf.famNsPerKey(famScan)
	L["skiplist.page_ns_per_key"] = leaf.famNsPerKey(famPage)
	L["skiplist.batch_ns_per_key"] = leaf.famNsPerKey(famBatch)
	L["combinator.merge_ns_per_key"] = wide.famNsPerKey(famScan, famPage) - leaf.famNsPerKey(famScan, famPage)
	L["combinator.batch_ns_per_key"] = wide.famNsPerKey(famBatch) - leaf.famNsPerKey(famBatch)
	L["combinator.merge_allocs_per_op"] = wide.allocsPerOp() - leaf.allocsPerOp()
	L["ebr.enter_exit_ns"] = enterExitNs(micro)
	L["loadgen.ns_per_op"] = loadgenNsPerOp(ring, micro)
	return nil
}

// layers fills a traced in-process run's per-layer numbers.
func (wl *inprocWorkload) layers(out *outcome, res *inprocResult, seed uint64, keys []int64, ring []op, budget time.Duration) error {
	counterLayers(out.layers, &res.stats, &res.measured, res.retired, res.reclaimed)
	familyLayers(out.layers, &res.measured)
	var note string
	out.layers["lat_p99_us"], note = res.tail()
	out.notes = append(out.notes, note)
	// In-process, the spans are the per-op timers the untraced run already
	// carries: tracing adds nothing to the loop.
	out.layers["trace.overhead_frac"] = 0
	return wl.cells(out.layers, seed, keys, ring, budget)
}
