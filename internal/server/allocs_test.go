//go:build !race

// The race detector instruments allocation (and drops sync.Pool Puts,
// which the structures' EBR node pools rely on), so the pin runs only in
// plain builds.

package server

import (
	"bytes"
	"io"
	"testing"

	"csds/internal/core"
)

// TestWireAllocs pins the wire path's allocation budget at zero per
// request, on both ends. A warmed session answers a burst of every
// command class — the corrupt page's CLIENT_ERROR included — without a
// heap allocation, and the Client's one-shot methods make a loopback
// round trip (both ends counted: the server runs in this process)
// without one either. Updates hit a present key (set) and an absent one
// (delete): the structure's own node allocations are not the wire's.
func TestWireAllocs(t *testing.T) {
	srv, addr, shutdown := startServer(t, Config{Spec: "sharded(32,hashtable/lazy)", Size: 1 << 12, UseEBR: true})
	defer func() {
		if err := shutdown(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}()
	c := core.NewCtx(0)
	for k := core.Key(0); k < 1000; k += 3 {
		srv.Set().Put(c, k, core.Value(k))
	}
	const absent = 1 << 20

	tok := core.CursorToken{Lo: 0, Hi: 1000, Pos: 100}.Encode()
	var src bytes.Reader
	s := newTestSession(srv, &src, io.Discard)
	defer s.ctx.Epoch.Unregister()
	for _, b := range []struct{ name, in string }{
		{"get", "get 3\r\n"},
		{"gets", "gets 3 4\r\n"},
		{"mget", "mget 3 4 5 6 7 8 9\r\n"},
		{"set", "set 3 0 0 1\r\n3\r\n"},
		{"delete", "delete 1048576\r\n"},
		{"range", "range 0 1000 64\r\n"},
		{"page", "page " + tok + " 64\r\n"},
		{"corrupt page", "page notatoken 64\r\n"},
	} {
		in := []byte(b.in)
		burst := func() {
			src.Reset(in)
			s.br.Reset(&src)
			s.run()
		}
		burst() // warm: grow the response buffer and the key scratch
		if got := testing.AllocsPerRun(100, burst); got != 0 {
			t.Errorf("session %s burst: %v allocs, want 0", b.name, got)
		}
	}

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	keys := []core.Key{3, 4, 5, 6}
	vals, oks := make([]core.Value, len(keys)), make([]bool, len(keys))
	for _, op := range []struct {
		name string
		do   func() error
	}{
		{"Get", func() error { _, _, err := cl.Get(3); return err }},
		{"Set", func() error { _, err := cl.Set(3, 3); return err }},
		{"Delete", func() error { _, err := cl.Delete(absent); return err }},
		{"MultiGet", func() error { return cl.MultiGet(keys, vals, oks) }},
	} {
		var err error
		round := func() {
			if e := op.do(); e != nil {
				err = e
			}
		}
		round()
		if got := testing.AllocsPerRun(100, round); got != 0 {
			t.Errorf("Client.%s round trip: %v allocs, want 0", op.name, got)
		}
		if err != nil {
			t.Fatalf("Client.%s: %v", op.name, err)
		}
	}
}
