// Per-layer attribution for the wire workloads: the spans the traced
// connections recorded, plus cells that replay the same request stream
// against one layer at a time (the structure alone, the parser alone,
// the generator alone).
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"time"

	"csds/internal/core"
	"csds/internal/ebr"
	"csds/internal/server"
)

// layers reduces a traced wire window to the server.* rows and says in
// a note where a round trip's time goes.
func (wl *wireWorkload) layers(out *outcome, m *measured, conns [][]reqSpan, audit server.Audit,
	keys []int64, ring []op, budget time.Duration) error {
	L := out.layers
	var rtt, residence, flush, transit hist
	var spans, reqs, reads, writes, in, outB, resNs uint64
	for _, cs := range conns {
		for _, s := range cs {
			r := s.recv - s.send
			res := s.srv.lastWrite - s.srv.firstRead
			rtt.record(r)
			residence.record(res)
			flush.record(s.srv.flushNs)
			transit.record(r - res)
			resNs += uint64(max(res, 0))
			spans++
			reqs += uint64(s.reqs)
			reads += uint64(s.srv.reads)
			writes += uint64(s.srv.writes)
			in += uint64(s.srv.bytesIn)
			outB += uint64(s.srv.bytesOut)
		}
	}
	if spans == 0 {
		return fmt.Errorf("traced window recorded no spans")
	}
	perSpan := float64(reqs) / float64(spans) // 1, or the train length
	L["server.rtt_p50_us"] = rtt.quantile(0.5) / 1e3
	L["server.rtt_p99_us"] = rtt.quantile(0.99) / 1e3
	L["server.residence_p50_us"] = residence.quantile(0.5) / 1e3
	L["server.residence_p99_us"] = residence.quantile(0.99) / 1e3
	L["server.flush_p50_us"] = flush.quantile(0.5) / 1e3
	L["server.transit_p50_us"] = transit.quantile(0.5) / 1e3
	L["server.reads_per_req"] = ratio(reads, reqs)
	L["server.writes_per_req"] = ratio(writes, reqs)
	L["server.bytes_in_per_req"] = ratio(in, reqs)
	L["server.bytes_out_per_req"] = ratio(outB, reqs)
	L["server.shed_frac"] = ratio(audit.Shed, m.opsTotal())
	L["locks.max_wait_us"] = float64(audit.MaxWaitNs) / 1e3
	L["ebr.retired"] = float64(audit.Retired)
	L["ebr.reclaimed"] = float64(audit.Reclaimed)
	L["ebr.reclaim_lag"] = ratio(audit.Retired-audit.Reclaimed, audit.Retired)
	runtimeLayers(L, m)
	if wl.open {
		L["loadgen.late_p99_us"] = m.quantile(0.99, func(r *workerRec) *[nSlices]hist { return &r.late }).med
		L["loadgen.ns_per_op"] = loadgenNsPerOp(ring, budget/20)
	} else {
		L["loadgen.ns_per_op"] = renderNsPerReq(ring, budget/20)
	}

	cellTime := (budget - budget/20) / 2
	exec, err := execNsPerReq(keys, ring, int(perSpan), cellTime)
	if err != nil {
		return err
	}
	parseNs, parseAllocs := parseCost(ring, cellTime)
	L["server.exec_ns_per_req"] = exec
	L["server.parse_ns_per_req"] = parseNs
	L["server.parse_allocs_per_req"] = parseAllocs
	// Means on both sides: exec is a mean, and a train's residence is
	// skewed by how many page requests it happens to carry.
	resPerReq := ratio(resNs, reqs) / 1e3
	L["server.overhead_us_per_req"] = resPerReq - exec/1e3

	unit := "round trip"
	if perSpan > 1 {
		unit = fmt.Sprintf("train of %.0f", perSpan)
	}
	out.notes = append(out.notes, fmt.Sprintf(
		"where a %s goes (p50, us): rtt %.1f = transit %.1f (kernel loopback, netpoll wake-ups, client parse) + residence %.1f, of which flush %.1f; per request (mean, us): residence %.2f = structure %.2f + parse, admit, encode and write-queue hop %.2f; the server made %.2f reads and %.2f writes per request",
		unit, L["server.rtt_p50_us"], L["server.transit_p50_us"], L["server.residence_p50_us"], L["server.flush_p50_us"],
		resPerReq, exec/1e3, resPerReq-exec/1e3, L["server.reads_per_req"], L["server.writes_per_req"]))
	if late, p50 := L["loadgen.late_p99_us"], m.latency(0.5).med; wl.open && late > p50 {
		out.notes = append(out.notes, fmt.Sprintf(
			"the generator's p99 lateness (%.0f us: timer wake-ups, and sends queued behind the connection's previous request) exceeds lat_p50_us (%.0f us): the latency tail from due time on this host is the benchmark's pacing as much as the server; server.rtt_* is the server's own share",
			late, p50))
	}
	return nil
}

// renderNsPerReq prices the pipelined generator: rendering trains into
// the send buffer without sending them.
func renderNsPerReq(ring []op, d time.Duration) float64 {
	c := &pipeConn{ring: ring}
	return spinFor(d, c.render) / trainLen
}

// execNsPerReq makes, directly, the calls into the structure that the
// server makes for this request stream — one worker, for d, on a
// structure built exactly as server.New builds it, through a Ctx carrying
// an EBR record as a connection's does. burst is how many requests reach
// the server together: within a burst, consecutive gets ride one MultiGet
// (the server's burst merge). What is left of residence after this is
// everything the server wraps around the structure.
func execNsPerReq(keys []int64, ring []op, burst int, d time.Duration) (float64, error) {
	dom := ebr.NewDomain()
	set, err := buildSet(serverConfig().Spec, dom, keys)
	if err != nil {
		return 0, err
	}
	cursor, batcher := set.(core.Cursor), set.(core.Batcher)
	c := core.NewCtx(0)
	c.Epoch = dom.Register()
	nop := func(core.Key, core.Value) bool { return true }
	gets := make([]core.Key, 0, burst)
	flush := func() {
		switch len(gets) {
		case 0:
		case 1:
			set.Get(c, gets[0])
		default:
			batcher.MultiGet(c, gets, func(int, core.Value, bool) {})
		}
		gets = gets[:0]
	}
	start := clock()
	deadline := start + int64(d)
	n := 0
	for now := start; now < deadline; now = clock() {
		for j := 0; j < burst; j++ {
			o := ring[n%len(ring)]
			n++
			k := o.key()
			if o.kind() == opGet {
				gets = append(gets, k)
				continue
			}
			flush()
			switch o.kind() {
			case opPut:
				set.Put(c, k, valueOf(k))
			case opRemove:
				set.Remove(c, k)
			case opCursor:
				cursor.CursorNext(c, k, k+scanSpan, pageMax, nop)
			}
		}
		flush()
	}
	elapsed := clock() - start
	c.Epoch.Unregister()
	quiesce(dom)
	return float64(elapsed) / float64(n), nil
}

// parseCost replays server.ReadRequest over the pre-rendered bytes of the
// request stream for d and returns its time and allocations per request.
func parseCost(ring []op, d time.Duration) (nsPerReq, allocsPerReq float64) {
	var wire []byte
	for _, o := range ring[:min(len(ring), 1<<14)] {
		wire = appendRequest(wire, o, "")
	}
	src := bytes.NewReader(wire)
	br := bufio.NewReaderSize(src, 4096)
	var req server.Request
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := clock()
	deadline := start + int64(d)
	n := 0
	for clock() < deadline {
		src.Reset(wire)
		br.Reset(src)
		for server.ReadRequest(br, &req) == nil {
			n++
		}
	}
	elapsed := clock() - start
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(n), ratio(after.Mallocs-before.Mallocs, uint64(n))
}
