// Chaos-plane tests: the server under injected faults and the client's
// recovery discipline against them. Counters are asserted through the
// stats command — the same interface operators get — not by reaching
// into server internals.
package server

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"csds/internal/core"
	"csds/internal/fault"
)

// pollStats polls the counter m[name] through a fresh client until cond
// holds or the deadline passes.
func pollStats(t *testing.T, addr, name string, cond func(uint64) bool) uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last uint64
	for time.Now().Before(deadline) {
		c, err := Dial(addr)
		if err == nil {
			m, err := c.Stats()
			c.Close()
			if err == nil {
				last = m[name]
				if cond(last) {
					return last
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("stat %q never satisfied condition (last %d)", name, last)
	return 0
}

func mustPlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestIdleEviction: a connection that makes no read progress within the
// idle window is evicted (closed and counted), while active connections
// are untouched.
func TestIdleEviction(t *testing.T) {
	_, addr, shutdown := startServer(t, Config{
		Spec: "sharded(4,hashtable/lazy)", Size: 256, IdleTimeout: 80 * time.Millisecond,
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}()

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	// The idle conn sends nothing; the server must close it.
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := idle.Read(buf); err == nil {
		t.Fatal("idle connection still open after the idle window")
	}
	if got := pollStats(t, addr, "evictions", func(v uint64) bool { return v >= 1 }); got < 1 {
		t.Fatalf("evictions = %d, want >= 1", got)
	}
}

// TestWatchdogExpelsWedgedRecord: a reader stalled inside an epoch
// bracket wedges advancement; the watchdog must detect the unchanged
// state word across two ticks, expel the record (counted in stats), and
// the drain must still end reclaimed == retired via the GC-backed
// downgrade.
func TestWatchdogExpelsWedgedRecord(t *testing.T) {
	srv, addr, shutdown := startServer(t, Config{
		Spec: "sharded(4,hashtable/lazy)", Size: 256, UseEBR: true,
		WatchdogTick: 10 * time.Millisecond,
	})

	// The wedge: a record that enters a bracket and never exits — the
	// stalled-reader failure mode a panicking or livelocked worker
	// exhibits when nothing unregisters it.
	wedge := srv.dom.Register()
	wedge.Enter()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Generate retirements so the wedge is actually holding limbo back.
	for k := int64(0); k < 64; k++ {
		if _, err := c.Set(core.Key(k), core.Value(k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(0); k < 64; k++ {
		if _, err := c.Delete(core.Key(k)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	if got := pollStats(t, addr, "watchdog_fires", func(v uint64) bool { return v >= 1 }); got < 1 {
		t.Fatalf("watchdog_fires = %d, want >= 1", got)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown after expulsion: %v", err)
	}
	if a := srv.Audit(); a.Retired != a.Reclaimed {
		t.Fatalf("domain did not quiesce after expulsion: %+v", a)
	}
	// The expelled record is inert: the dead worker's late unregister
	// must be a no-op, not a double-free.
	wedge.Unregister()
}

// TestForcedShedSurfacesTyped: the shed.busy fault point forces busy
// replies that are wire-indistinguishable from real saturation; the
// client must surface them as *RetryableError wrapping ErrBusy on
// writes, and the counters must attribute them to both shed and faults.
func TestForcedShedSurfacesTyped(t *testing.T) {
	srv, addr, shutdown := startServer(t, Config{
		Spec: "sharded(4,hashtable/lazy)", Size: 256,
		Fault: mustPlan(t, "shed.busy:every=3;seed=7"),
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sheds := 0
	for k := int64(0); k < 30; k++ {
		_, err := c.Set(core.Key(k), core.Value(k))
		if err == nil {
			continue
		}
		var re *RetryableError
		if !errors.As(err, &re) || !errors.Is(err, ErrBusy) {
			t.Fatalf("Set error = %v, want *RetryableError wrapping ErrBusy", err)
		}
		sheds++
	}
	if sheds == 0 {
		t.Fatal("shed.busy:every=3 never shed over 30 sets")
	}
	a := srv.Audit()
	if a.Shed < uint64(sheds) || a.Faults < uint64(sheds) {
		t.Fatalf("audit shed=%d faults=%d, want both >= %d", a.Shed, a.Faults, sheds)
	}
}

// TestClientRetriesBusyReads: with a retry budget, reads ride through
// forced sheds transparently — every Get succeeds even though the
// server sheds a third of admissions.
func TestClientRetriesBusyReads(t *testing.T) {
	_, addr, shutdown := startServer(t, Config{
		Spec: "sharded(4,hashtable/lazy)", Size: 256,
		Fault: mustPlan(t, "shed.busy:every=3;seed=11"),
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Policy = RetryPolicy{Budget: 5, OpDeadline: 2 * time.Second, BaseBackoff: time.Millisecond}

	for k := int64(0); k < 20; k++ {
		for { // writes reissue on the typed error; that's the caller's loop
			_, err := c.Set(core.Key(k), core.Value(k))
			var re *RetryableError
			if errors.As(err, &re) {
				continue
			}
			if err != nil {
				t.Fatalf("Set(%d): %v", k, err)
			}
			break
		}
	}
	for k := int64(0); k < 20; k++ {
		v, ok, err := c.Get(core.Key(k))
		if err != nil {
			t.Fatalf("Get(%d) failed despite retry budget: %v", k, err)
		}
		if !ok || int64(v) != k {
			t.Fatalf("Get(%d) = (%v, %v)", k, v, ok)
		}
	}
}

// TestClientRetriesDroppedConns: injected connection drops kill the
// transport mid-operation; the read path must redial and retry within
// its budget, and cursor pages must resume by token without duplicate
// or missing keys.
func TestClientRetriesDroppedConns(t *testing.T) {
	_, addr, shutdown := startServer(t, Config{
		Spec: "sharded(4,hashtable/lazy)", Size: 256,
		Fault: mustPlan(t, "conn.drop:every=29;seed=3"),
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}()

	// Prefill on a clean policy-less client, reissuing on any error (the
	// drop plan can kill the conn mid-write, where outcome is unknown —
	// set is insert-if-absent, so blind reissue is safe here).
	prefill, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 64; k++ {
		for {
			if _, err := prefill.Set(core.Key(k), core.Value(k)); err == nil {
				break
			}
			prefill.Close()
			if prefill, err = Dial(addr); err != nil {
				t.Fatal(err)
			}
		}
	}
	prefill.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Policy = RetryPolicy{Budget: 6, OpDeadline: 2 * time.Second, BaseBackoff: time.Millisecond}

	for k := int64(0); k < 64; k++ {
		v, ok, err := c.Get(core.Key(k))
		if err != nil {
			t.Fatalf("Get(%d) failed despite retry budget: %v", k, err)
		}
		if !ok || int64(v) != k {
			t.Fatalf("Get(%d) = (%v, %v)", k, v, ok)
		}
	}

	// Paginate the whole window under drops: tokens are pure positions,
	// so retried pages must deliver each key exactly once, in order.
	seen := make(map[int64]bool)
	token, done, err := c.Range(0, 64, 10, func(k core.Key, v core.Value) {
		seen[int64(k)] = true
	})
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	for !done {
		token, done, err = c.Page(token, 10, func(k core.Key, v core.Value) {
			if seen[int64(k)] {
				t.Fatalf("key %d delivered twice across retried pages", k)
			}
			seen[int64(k)] = true
		})
		if err != nil {
			t.Fatalf("Page: %v", err)
		}
	}
	if len(seen) != 64 {
		t.Fatalf("pagination under drops delivered %d of 64 keys", len(seen))
	}
}

// TestFaultedConnBothDirections: on a pipelined connection both
// directions draw conn.* faults, reads and writes alternating on the one
// session goroutine. Each direction keeps an injector of its own, so a
// plan's read-side and write-side schedules stay independent (a
// read-side fire never shifts which write is torn). Every connection
// here can only end by an injected drop, so the tally must count at
// least one each.
func TestFaultedConnBothDirections(t *testing.T) {
	srv, addr, shutdown := startServer(t, Config{
		Spec: "sharded(4,hashtable/lazy)", Size: 256,
		Fault: mustPlan(t, "conn.drop:every=40;seed=5"),
	})
	const conns = 6
	burst := bytes.Repeat([]byte("get 1 2 3\r\n"), 32)
	for i := 0; i < conns; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		drained := make(chan struct{})
		go func() {
			io.Copy(io.Discard, nc) // until the server severs the conn
			close(drained)
		}()
		for {
			if _, err := nc.Write(burst); err != nil {
				break
			}
		}
		<-drained
		nc.Close()
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := srv.FaultTally().Count(fault.ConnDrop); got < conns {
		t.Fatalf("%d connections ended with only %d injected drops", conns, got)
	}
}

// TestInjectedPanicContainment: handler panics injected mid-burst must
// not take the server down, wedge the epoch, or leak the dying worker's
// record — the live-server half of the batch-path panic contract.
func TestInjectedPanicContainment(t *testing.T) {
	srv, addr, shutdown := startServer(t, Config{
		Spec: "sharded(4,hashtable/lazy)", Size: 256, UseEBR: true,
		Fault: mustPlan(t, "handler.panic:every=25;seed=5"),
	})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Policy = RetryPolicy{Budget: 6, OpDeadline: 2 * time.Second, BaseBackoff: time.Millisecond}

	// Deep pipelined bursts make the injected panic land between a
	// burst's requests — responses already rendered, more pending.
	for round := 0; round < 12; round++ {
		for i := 0; i < 16; i++ {
			c.PipeSet(core.Key(round*16+i), core.Value(round*16+i))
		}
		if err := c.Flush(); err == nil {
			for i := 0; i < 16; i++ {
				if _, err := c.RecvStored(); err != nil {
					break // burst died mid-flight: reissue below
				}
			}
		}
		// The panicked conn is dead; a fresh dial must always work.
		c.Close()
		if c, err = Dial(addr); err != nil {
			t.Fatalf("redial after injected panic: %v", err)
		}
		c.Policy = RetryPolicy{Budget: 6, OpDeadline: 2 * time.Second, BaseBackoff: time.Millisecond}
	}

	// Every key reaches the structure eventually: retry sets until
	// stored-or-present, then verify via retried reads.
	for k := int64(0); k < 12*16; k++ {
		for {
			if _, err := c.Set(core.Key(k), core.Value(k)); err == nil {
				break
			}
			c.Close()
			if c, err = Dial(addr); err != nil {
				t.Fatal(err)
			}
			c.Policy = RetryPolicy{Budget: 6, OpDeadline: 2 * time.Second, BaseBackoff: time.Millisecond}
		}
	}
	for k := int64(0); k < 12*16; k++ {
		v, ok, err := c.Get(core.Key(k))
		if err != nil || !ok || int64(v) != k {
			t.Fatalf("Get(%d) = (%v, %v, %v) after panic storm", k, v, ok, err)
		}
	}
	c.Close()

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown after panic storm: %v", err)
	}
	a := srv.Audit()
	if a.Retired != a.Reclaimed {
		t.Fatalf("panic storm leaked reclamation: %+v", a)
	}
	if a.Faults == 0 {
		t.Fatal("handler.panic plan fired nothing")
	}
}

// TestDegradedModeShedsPagesFirst: at 3/4 in-flight saturation the
// server sheds pages while point ops still run.
func TestDegradedModeShedsPagesFirst(t *testing.T) {
	srv, addr, shutdown := startServer(t, Config{
		Spec: "sharded(4,hashtable/lazy)", Size: 256, MaxInflight: 4,
	})
	defer func() {
		if err := shutdown(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Set(1, 10); err != nil {
		t.Fatal(err)
	}

	// Saturate 3 of 4 slots through the real admission path so the
	// gauge agrees with the channel.
	for i := 0; i < 3; i++ {
		if !srv.acquire() {
			t.Fatal("acquire failed below the cap")
		}
	}
	defer func() {
		for i := 0; i < 3; i++ {
			srv.release()
		}
	}()

	if _, _, err := c.Range(0, 10, 5, func(core.Key, core.Value) {}); !errors.Is(err, ErrBusy) {
		t.Fatalf("degraded Range error = %v, want ErrBusy", err)
	}
	if v, ok, err := c.Get(1); err != nil || !ok || v != 10 {
		t.Fatalf("degraded Get = (%v, %v, %v), want the point op to succeed", v, ok, err)
	}
	if got := pollStats(t, addr, "inflight", func(v uint64) bool { return v >= 3 }); got < 3 {
		t.Fatalf("inflight gauge = %d, want >= 3", got)
	}
}

// TestDialRetryBacksOff: the handshake helper gives up only after the
// patience window and returns the dial error; the backoff is bounded by
// patience so it cannot sleep past the deadline it reports against.
func TestDialRetryBacksOff(t *testing.T) {
	// A listener opened and closed leaves a port nothing accepts on.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	t0 := time.Now()
	_, err = DialRetry(addr, 300*time.Millisecond)
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("DialRetry to a dead port succeeded")
	}
	if elapsed < 250*time.Millisecond || elapsed > 3*time.Second {
		t.Fatalf("DialRetry gave up after %v, want ~patience (300ms)", elapsed)
	}
}
