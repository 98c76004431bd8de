// The two wire workloads: a client's view of the system, through a
// server hosted in this process (server.New + Serve on 127.0.0.1:0, with
// csdsd's defaults) and real loopback TCP connections.
package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"csds/internal/core"
	"csds/internal/server"
)

const (
	openRate  = 10000.0 // wire-open: offered requests per second, all connections
	zipfTheta = 0.99
	trainLen  = 32 // wire-pipelined: requests per train
)

var (
	openMix = mix{opGet: 0.90, opPut: 0.05, opRemove: 0.05}
	pipeMix = mix{opGet: 0.85, opPut: 0.05, opRemove: 0.05, opCursor: 0.05}
)

// serverConfig is csdsd's defaults, spelled out so a change to the
// daemon's flags cannot silently change what is measured.
func serverConfig() server.Config {
	return server.Config{Spec: pointSpec, Size: prefillN, UseEBR: true,
		MaxInflight: 128, WriteQueue: 32, MaxBurst: 64}
}

// hosted is a server running in this process.
type hosted struct {
	srv    *server.Server
	lis    *traceListener
	served chan error
}

// hostServer builds the server, prefills its structure directly (the
// timed set-up is the program's, not the wire's) and starts serving.
func hostServer(keys []int64, traced bool) (*hosted, error) {
	srv, err := server.New(serverConfig())
	if err != nil {
		return nil, err
	}
	prefill(srv.Set(), keys)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &hosted{srv: srv, served: make(chan error, 1), lis: newTraceListener(l, traced, workerCount())}
	go func() { h.served <- srv.Serve(h.lis) }()
	<-h.lis.serving
	return h, nil
}

// shutdown drains the server and reports a drain that failed or left
// retired nodes unreclaimed.
func (h *hosted) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-h.served; err != nil {
		return err
	}
	if a := h.srv.Audit(); a.Retired != a.Reclaimed {
		return fmt.Errorf("drained with retired %d != reclaimed %d", a.Retired, a.Reclaimed)
	}
	return nil
}

// wireConn is what both kinds of benchmark connection share.
type wireConn struct {
	rec   *workerRec
	tally tally
	tc    *tracedConn // the server's end of this connection; nil untraced
	spans []reqSpan
	seq   int
}

func newWireConn() wireConn { return wireConn{rec: new(workerRec), tally: make(tally, keySpace)} }

// trace closes the span of the request (or train of reqs requests) just
// completed. Requests outside the window are harvested and dropped.
func (w *wireConn) trace(reqs int, due, send, recv int64, slot int) {
	if w.tc == nil {
		return
	}
	s := w.tc.harvest()
	if slot >= 0 && slot < nSlices {
		w.spans = append(w.spans, reqSpan{seq: w.seq, reqs: reqs, due: due, send: send, recv: recv, srv: s})
	}
	w.seq++
}

// wireRunner is one benchmark connection driving its share of the load.
type wireRunner interface {
	run(win window) error
	conn() *wireConn
	close()
}

// openConn sends one request per round trip through server.Client on a
// pre-generated Poisson schedule.
type openConn struct {
	wireConn
	cl  *server.Client
	ops []op
	due []int64
}

func (c *openConn) conn() *wireConn { return &c.wireConn }
func (c *openConn) close()          { c.cl.Close() }

// run is the open loop. Latency runs from the request's due time, not
// from when it was sent: a stalled connection sends late, and the wait it
// imposes on the requests queued behind it is the server's, not theirs.
func (c *openConn) run(win window) error {
	for i, d := range c.due {
		target := win.origin + d
		slot := win.slot(target)
		if slot >= nSlices {
			return nil
		}
		paceUntil(target)
		send := clock()
		o := c.ops[i]
		k := o.key()
		f := famGet
		var err error
		switch o.kind() {
		case opGet:
			var v core.Value
			var ok bool
			if v, ok, err = c.cl.Get(k); err == nil && ok && v != valueOf(k) {
				c.rec.violations++
			}
		case opPut:
			f = famUpdate
			var stored bool
			if stored, err = c.cl.Set(k, valueOf(k)); stored {
				c.tally[k]++
			}
		case opRemove:
			f = famUpdate
			var deleted bool
			if deleted, err = c.cl.Delete(k); deleted {
				c.tally[k]--
			}
		}
		recv := clock()
		// A request counts in the slice it completed in (the schedule
		// decides when the loop ends, completions decide the rate).
		slot = win.slot(recv)
		switch {
		case errors.Is(err, server.ErrBusy):
			c.rec.failed++
		case err != nil:
			return fmt.Errorf("request %d: %w", i, err)
		case slot >= 0 && slot < nSlices:
			c.rec.timed(slot, f, recv-target, 1)
			c.rec.late[slot].record(send - target)
		}
		c.trace(1, target, send, recv, slot)
	}
	return errors.New("arrival schedule ran out before the window ended")
}

// pending is what one pipelined request expects back.
type pending struct {
	kind opKind
	key  int64 // get/set/delete key
	hi   int64 // cursor: window end
	prev int64 // cursor: last key delivered before this page
}

// pipeConn sends trains of trainLen pipelined requests over a raw
// connection and reads all replies. server.Client has no pipelined form
// of range/page, and a train is written with one Write so that the
// server sees a burst, so this connection renders and parses the dialect
// itself.
type pipeConn struct {
	wireConn
	nc    net.Conn
	br    *bufio.Reader
	ring  []op
	pos   int
	out   []byte
	train [trainLen]pending

	// The cursor a page request resumes: set by the last unfinished page
	// reply, consumed by the next cursor op.
	token          string
	tokHi, tokPrev int64
}

func (c *pipeConn) conn() *wireConn { return &c.wireConn }
func (c *pipeConn) close() {
	c.nc.Write([]byte("quit\r\n")) // best effort, like server.Client.Close
	c.nc.Close()
}

// appendRequest renders one request of the dialect. token, when
// non-empty, turns a cursor op into a page resume.
func appendRequest(buf []byte, o op, token string) []byte {
	k := o.key()
	switch o.kind() {
	case opGet:
		buf = append(buf, "get "...)
		buf = strconv.AppendInt(buf, k, 10)
	case opPut:
		var num [24]byte
		data := strconv.AppendInt(num[:0], valueOf(k), 10)
		buf = append(buf, "set "...)
		buf = strconv.AppendInt(buf, k, 10)
		buf = append(buf, " 0 0 "...)
		buf = strconv.AppendInt(buf, int64(len(data)), 10)
		buf = append(buf, '\r', '\n')
		buf = append(buf, data...)
	case opRemove:
		buf = append(buf, "delete "...)
		buf = strconv.AppendInt(buf, k, 10)
	case opCursor:
		if token != "" {
			buf = append(buf, "page "...)
			buf = append(buf, token...)
		} else {
			buf = append(buf, "range "...)
			buf = strconv.AppendInt(buf, k, 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, k+scanSpan, 10)
		}
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, pageMax, 10)
	}
	return append(buf, '\r', '\n')
}

// render fills c.out and c.train with the next train.
func (c *pipeConn) render() {
	c.out = c.out[:0]
	mask := len(c.ring) - 1
	for j := range c.train {
		o := c.ring[c.pos&mask]
		c.pos++
		p := pending{kind: o.kind(), key: o.key()}
		token := ""
		if p.kind == opCursor {
			if c.token != "" {
				token, p.hi, p.prev = c.token, c.tokHi, c.tokPrev
				c.token = ""
			} else {
				p.hi, p.prev = p.key+scanSpan, p.key-1
			}
		}
		c.out = appendRequest(c.out, o, token)
		c.train[j] = p
	}
}

func (c *pipeConn) run(win window) error {
	for {
		c.render()
		t0 := clock()
		if _, err := c.nc.Write(c.out); err != nil {
			return err
		}
		done, keys := 0, 0
		for j := range c.train {
			n, busy, err := c.reply(&c.train[j])
			if err != nil {
				return fmt.Errorf("train %d request %d: %w", c.seq, j, err)
			}
			if busy {
				c.rec.failed++
				continue
			}
			done++
			keys += n
		}
		t1 := clock()
		slot := win.slot(t1)
		if slot >= 0 && slot < nSlices {
			c.rec.ops[slot] += uint64(done)
			c.rec.keys[slot] += uint64(keys)
			c.rec.lat[slot].record(t1 - t0)
		}
		c.trace(trainLen, t0, t0, t1, slot)
		if slot >= nSlices {
			return nil
		}
	}
}

// line reads one reply line without its CRLF.
func (c *pipeConn) line() ([]byte, error) {
	l, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	for len(l) > 0 && (l[len(l)-1] == '\n' || l[len(l)-1] == '\r') {
		l = l[:len(l)-1]
	}
	return l, nil
}

// field cuts the next space-separated field off b.
func field(b []byte) (f, rest []byte) {
	for len(b) > 0 && b[0] == ' ' {
		b = b[1:]
	}
	i := 0
	for i < len(b) && b[i] != ' ' {
		i++
	}
	return b[:i], b[i:]
}

// atoi parses a decimal int64 without allocating.
func atoi(b []byte) (n int64, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	for _, d := range b {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int64(d-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

var (
	replyBusy      = []byte("SERVER_ERROR busy")
	replyStored    = []byte("STORED")
	replyNotStored = []byte("NOT_STORED")
	replyDeleted   = []byte("DELETED")
	replyNotFound  = []byte("NOT_FOUND")
	replyEnd       = []byte("END")
	replyValue     = []byte("VALUE ")
	replyCursor    = []byte("CURSOR ")
)

// reply reads and checks the reply to one pipelined request. It returns
// the keys the reply delivered or applied, and whether the server shed
// the request. A reply that is wrong but well-framed is a violation; one
// that breaks the framing is an error.
func (c *pipeConn) reply(p *pending) (keys int, busy bool, err error) {
	for {
		l, err := c.line()
		if err != nil {
			return 0, false, err
		}
		switch {
		case bytes.Equal(l, replyBusy):
			return 0, true, nil
		case p.kind == opPut && bytes.Equal(l, replyStored):
			c.tally[p.key]++
			return 1, false, nil
		case p.kind == opPut && bytes.Equal(l, replyNotStored):
			return 1, false, nil
		case p.kind == opRemove && bytes.Equal(l, replyDeleted):
			c.tally[p.key]--
			return 1, false, nil
		case p.kind == opRemove && bytes.Equal(l, replyNotFound):
			return 1, false, nil
		case p.kind == opGet && bytes.Equal(l, replyEnd):
			return 1, false, nil
		case p.kind == opCursor && bytes.Equal(l, replyEnd):
			return keys, false, nil
		case (p.kind == opGet || p.kind == opCursor) && bytes.HasPrefix(l, replyValue):
			kf, _ := field(l[len(replyValue):])
			k, okK := atoi(kf)
			data, err := c.line()
			if err != nil {
				return 0, false, err
			}
			v, okV := atoi(data)
			switch {
			case !okK || !okV || v != valueOf(k):
				c.rec.violations++
			case p.kind == opGet && k != p.key:
				c.rec.violations++
			case p.kind == opCursor && (k <= p.prev || k >= p.hi):
				c.rec.violations++
			}
			p.prev = k
			keys++
		case p.kind == opCursor && bytes.HasPrefix(l, replyCursor):
			tok, rest := field(l[len(replyCursor):])
			fin, _ := field(rest)
			if keys > pageMax {
				c.rec.violations++
			}
			if string(fin) != "1" {
				c.token, c.tokHi, c.tokPrev = string(tok), p.hi, p.prev
			}
		default:
			return 0, false, fmt.Errorf("unexpected reply %q to op kind %d", l, p.kind)
		}
	}
}

// wireWorkload is what distinguishes wire-open from wire-pipelined.
type wireWorkload struct {
	name    string
	open    bool
	mix     *mix
	ringLen int // closed loop: ring length, a power of two
}

var (
	wireOpen      = wireWorkload{name: "wire-open", open: true, mix: &openMix}
	wirePipelined = wireWorkload{name: "wire-pipelined", mix: &pipeMix, ringLen: 1 << 18}
)

// wireLoad is the generated input of a wire run.
type wireLoad struct {
	rings [][]op
	dues  [][]int64 // open loop only
}

// generate builds each connection's op stream (and arrival schedule)
// long enough for a window of d with its warm-up and some slack.
func (wl *wireWorkload) generate(seed uint64, conns int, d time.Duration) wireLoad {
	var load wireLoad
	var z *zipf
	if wl.open {
		z = newZipf(zipfTheta)
	}
	for i := 0; i < conns; i++ {
		n := wl.ringLen
		if wl.open {
			perConn := openRate / float64(conns)
			n = int(perConn*(d.Seconds()+2)*1.1) + 1000
			load.dues = append(load.dues, genSchedule(newRng(seed, 0x100+uint64(i)), n, perConn))
		}
		load.rings = append(load.rings, genOps(newRng(seed, uint64(i)), n, wl.mix, z))
	}
	return load
}

// wireRig is a hosted server with the benchmark's connections dialed.
type wireRig struct {
	h     *hosted
	conns []wireRunner
}

// newRig hosts a server and dials the connections one at a time, so
// that in a traced rig accept order pairs each with the server's end.
func (wl *wireWorkload) newRig(keys []int64, load wireLoad, traced bool) (*wireRig, error) {
	h, err := hostServer(keys, traced)
	if err != nil {
		return nil, err
	}
	rig := &wireRig{h: h}
	addr := h.lis.Addr().String()
	for i := range load.rings {
		var r wireRunner
		if wl.open {
			cl, err := server.Dial(addr)
			if err != nil {
				rig.close()
				return nil, err
			}
			r = &openConn{wireConn: newWireConn(), cl: cl, ops: load.rings[i], due: load.dues[i]}
		} else {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				rig.close()
				return nil, err
			}
			r = &pipeConn{wireConn: newWireConn(), nc: nc, br: bufio.NewReaderSize(nc, 1<<16), ring: load.rings[i]}
		}
		if traced {
			r.conn().tc = <-h.lis.accepted
			r.conn().spans = make([]reqSpan, 0, 1<<16)
		}
		rig.conns = append(rig.conns, r)
	}
	return rig, nil
}

// close hangs up the connections and drains the server.
func (r *wireRig) close() error {
	for _, c := range r.conns {
		c.close()
	}
	return r.h.shutdown()
}

// window drives every connection through one warm-up + measured window.
func (r *wireRig) window(d time.Duration) (*measured, error) {
	m := &measured{win: newWindow(d)}
	errs := make(chan error, len(r.conns))
	for _, c := range r.conns {
		go func() { errs <- c.run(m.win) }()
	}
	m.a, m.b, m.cpu = m.win.bracket()
	var first error
	for range r.conns {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	runtime.GC()
	m.heapLive = takeSnap().heapInuse
	for _, c := range r.conns {
		m.recs = append(m.recs, c.conn().rec)
	}
	return m, nil
}

// finish closes a rig after its window and verifies what the window left
// behind: the drain ledger and the per-key update ledger.
func (r *wireRig) finish(out *outcome, keys []int64) {
	if err := r.close(); err != nil {
		out.violations++
		out.notes = append(out.notes, "shutdown: "+err.Error())
	}
	var tallies []tally
	for _, c := range r.conns {
		tallies = append(tallies, c.conn().tally)
	}
	out.violations += verifySet(r.h.srv.Set(), keys, tallies)
}

func (wl *wireWorkload) run(cfg runConfig) (*outcome, error) {
	keys := prefillKeys(cfg.seed)
	load := wl.generate(cfg.seed, workerCount(), cfg.seconds)
	out := &outcome{hash: streamHash(load.rings, load.dues), layers: map[string]float64{}}

	setup, rig, err := timeSetups(cfg.setups,
		func() (*wireRig, error) { return wl.newRig(keys, load, false) },
		func(r *wireRig) { r.close() })
	if err != nil {
		return nil, err
	}
	out.setup = setup

	share := cfg.seconds
	if cfg.trace {
		share = cfg.seconds * 3 / 10 // untraced window, traced window, then cells
	}
	m, err := rig.window(share)
	if err != nil {
		rig.close()
		return nil, err
	}
	out.m = m
	out.count(m.recs)
	rig.finish(out, keys)
	if !cfg.trace {
		return out, nil
	}

	// Latency and throughput with tracing off, from the first window.
	var note string
	out.layers["lat_p99_us"], note = m.tail()
	out.notes = append(out.notes, note)
	untraced := m.opsPerSec().med
	rig, err = wl.newRig(keys, load, true)
	if err != nil {
		return nil, err
	}
	m, err = rig.window(share)
	if err != nil {
		rig.close()
		return nil, err
	}
	out.m = m
	out.count(m.recs)
	audit := rig.h.srv.Audit() // live: shed so far, reclamation before the drain
	rig.finish(out, keys)
	var spans [][]reqSpan
	for _, c := range rig.conns {
		spans = append(spans, c.conn().spans)
	}
	out.layers["trace.overhead_frac"] = 1 - m.opsPerSec().med/untraced
	if err := wl.layers(out, m, spans, audit, keys, load.rings[0], cfg.seconds-2*share); err != nil {
		return nil, err
	}
	path := cfg.spans
	if path == "" {
		path = filepath.Join(os.TempDir(), "csds-bench-"+wl.name+".spans.csv")
	}
	if err := writeSpans(path, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	out.notes = append(out.notes, "spans written to "+path)
	return out, nil
}
