// Outside-in tracing of the served path. The benchmark hands Serve a
// listener whose Accept returns a timestamping, counting net.Conn, so the
// server's every Read and Write on a connection is seen from the
// benchmark's own files, on the benchmark's own clock (same process).
// With one request or one train outstanding per connection, every
// server-side event between a client's send and its last reply byte
// belongs to that request, which nests three spans per request id
// (connection, sequence):
//
//	request           client send → last reply byte read
//	  server.residence  first conn Read return → last conn Write return
//	    server.flush      the conn Write calls themselves
//
// The self time of request is transit: kernel loopback, netpoll wake-ups
// and the client's own parse.
package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
)

// traceListener wraps accepted connections when tracing is on and hands
// each wrapper out on accepted, in accept order. With tracing off it is
// the plain listener: the end-to-end run pays nothing.
type traceListener struct {
	net.Listener
	traced   bool
	accepted chan *tracedConn // buffered for every connection a run dials

	// serving is closed on the first Accept call. Serve records its
	// listener before it first accepts, and Shutdown can only close a
	// listener Serve has recorded: a Shutdown that overtook the Serve
	// goroutine would leave it accepting forever.
	serving     chan struct{}
	servingOnce sync.Once
}

func newTraceListener(l net.Listener, traced bool, conns int) *traceListener {
	return &traceListener{Listener: l, traced: traced,
		accepted: make(chan *tracedConn, conns), serving: make(chan struct{})}
}

func (l *traceListener) Accept() (net.Conn, error) {
	l.servingOnce.Do(func() { close(l.serving) })
	nc, err := l.Listener.Accept()
	if err != nil || !l.traced {
		return nc, err
	}
	tc := &tracedConn{Conn: nc}
	l.accepted <- tc
	return tc, nil
}

// connSpan is the server side of one request (or train) on one
// connection.
type connSpan struct {
	firstRead, lastWrite int64 // clock readings; residence = lastWrite − firstRead
	flushNs              int64 // time inside conn.Write
	reads, writes        int   // conn calls that moved bytes ≈ syscalls
	bytesIn, bytesOut    int
}

// tracedConn records the server's reads and writes on one connection.
// The server reads on one goroutine and writes on another, and the
// client harvests from a third, so the span is mutex-guarded; the lock is
// never contended for longer than a few field updates.
type tracedConn struct {
	net.Conn
	mu      sync.Mutex
	cur     connSpan
	writing int
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		t := clock()
		c.mu.Lock()
		if c.cur.reads == 0 {
			c.cur.firstRead = t
		}
		c.cur.reads++
		c.cur.bytesIn += n
		c.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writing++
	c.mu.Unlock()
	t0 := clock()
	n, err := c.Conn.Write(p)
	t1 := clock()
	c.mu.Lock()
	c.writing--
	c.cur.writes++
	c.cur.bytesOut += n
	c.cur.flushNs += t1 - t0
	c.cur.lastWrite = t1
	c.mu.Unlock()
	return n, err
}

// harvest returns the span of the request whose last reply byte the
// caller has just read, and starts the next. Every Write of that request
// has begun (its bytes arrived) but the last may not have returned yet —
// the client can wake before the server's syscall does — so harvest waits
// for writes in flight to land. The wait is bounded: a request that
// failed without a reply must not hang the client.
func (c *tracedConn) harvest() connSpan {
	for spin := 0; ; spin++ {
		c.mu.Lock()
		if (c.writing == 0 && c.cur.writes > 0) || spin > 1<<16 {
			s := c.cur
			c.cur = connSpan{}
			c.mu.Unlock()
			return s
		}
		c.mu.Unlock()
		runtime.Gosched()
	}
}

// reqSpan is one traced request: the client's root span and the server
// span nested in it.
type reqSpan struct {
	seq, reqs       int   // sequence on the connection; requests it carried (train length)
	due, send, recv int64 // due == send in a closed loop
	srv             connSpan
}

// writeSpans writes the recorded spans of a traced window as CSV, one
// row per request id with its three nested spans.
func writeSpans(path string, conns [][]reqSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "conn,seq,requests,due_ns,request_start_ns,request_end_ns,residence_start_ns,residence_end_ns,flush_ns,reads,writes,bytes_in,bytes_out")
	for c, spans := range conns {
		for _, s := range spans {
			fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n", c, s.seq, s.reqs, s.due, s.send, s.recv,
				s.srv.firstRead, s.srv.lastWrite, s.srv.flushNs, s.srv.reads, s.srv.writes, s.srv.bytesIn, s.srv.bytesOut)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
