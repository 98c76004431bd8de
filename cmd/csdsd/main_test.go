package main

import (
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"csds/internal/server"
)

// TestBootServeDrain drives the daemon's whole life through run's flag
// wiring: boot on a free loopback port, answer a set/get/delete/stats
// round trip, drain on SIGTERM, exit 0 with an audit line whose retired
// count equals its reclaimed count.
func TestBootServeDrain(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	var stdout, stderr strings.Builder
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", addr, "-alg", "sharded(4,hashtable/lazy)", "-size", "64", "-quiet"}, &stdout, &stderr)
	}()

	c, err := server.DialRetry(addr, 5*time.Second)
	if err != nil {
		select {
		case code := <-exit:
			t.Fatalf("csdsd exited %d before serving: %s", code, stderr.String())
		default:
			t.Fatal(err)
		}
	}
	if stored, err := c.Set(7, 70); err != nil || !stored {
		t.Fatalf("set 7: stored=%v err=%v", stored, err)
	}
	if v, ok, err := c.Get(7); err != nil || !ok || v != 70 {
		t.Fatalf("get 7: %v %v %v", v, ok, err)
	}
	if deleted, err := c.Delete(7); err != nil || !deleted {
		t.Fatalf("delete 7: deleted=%v err=%v", deleted, err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// A nonzero retired count here is what makes the drain check below
	// more than 0 == 0.
	if st["ops"] < 3 || st["retired"] == 0 {
		t.Fatalf("stats after set/get/delete: %v", st)
	}
	c.Close()

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("drain exited %d: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("csdsd did not drain within 10s of SIGTERM")
	}

	_, audit, ok := strings.Cut(stdout.String(), "csdsd: drained: ")
	if !ok {
		t.Fatalf("no drain audit line on stdout: %q", stdout.String())
	}
	counts := map[string]string{}
	for _, f := range strings.Fields(audit) {
		name, val, _ := strings.Cut(f, "=")
		counts[name] = val
	}
	if counts["retired"] == "" || counts["retired"] != counts["reclaimed"] {
		t.Fatalf("audit line does not show retired == reclaimed: %q", audit)
	}
}

// TestBadFaultPlanExits2: a -fault schedule fault.ParsePlan rejects is a
// usage error, reported before anything listens.
func TestBadFaultPlanExits2(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-fault", "no.such.point:every=3"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-fault") {
		t.Fatalf("stderr does not name the flag: %s", stderr.String())
	}
}
