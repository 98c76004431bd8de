package server

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"csds/internal/core"
	"csds/internal/stats"
	"csds/internal/xrand"

	_ "csds/internal/combinator"
	_ "csds/internal/hashtable"
	_ "csds/internal/list"
)

// FuzzWireProtocol drives a full session — parser, burst batching, and
// handler — over arbitrary bytes. The contract under test: whatever the
// wire carries (malformed commands, truncated frames, oversized counts,
// corrupted cursor tokens, binary garbage), the server never panics and
// every emitted response line is one of the protocol's legal shapes.
func FuzzWireProtocol(f *testing.F) {
	// Valid traffic: pipelined bursts of every command class.
	f.Add([]byte("set 1 0 0 1\r\n7\r\nget 1\r\ngets 1 2\r\nmget 1 2 3\r\ndelete 1\r\nquit\r\n"))
	f.Add([]byte("set 5 0 0 2 noreply\r\n42\r\nget 5\r\nrange 0 100 16\r\nstats\r\nversion\r\n"))
	// A structurally valid cursor token (well-formed base64; the checksum
	// check inside DecodeCursorToken rejects or accepts — either way, no
	// panic) and corrupted variants.
	tok := core.CursorToken{Lo: 1, Hi: 100, Pos: 10}.Encode()
	f.Add([]byte("range 1 100 8\r\npage " + tok + " 8\r\n"))
	f.Add([]byte("page " + tok[:len(tok)-2] + "xx 8\r\n"))
	f.Add([]byte("page AAAAAAAA 8\r\npage " + strings.Repeat("B", 128) + " 4\r\n"))
	// Malformed and truncated frames.
	f.Add([]byte("set 1 0 0 99999\r\n"))
	f.Add([]byte("set 1 0 0 5\r\nab"))
	f.Add([]byte("get " + strings.Repeat("9", 30) + "\r\n"))
	f.Add([]byte("get\r\n\r\n\x00\x01\x02\r\nbogus\r\n"))
	f.Add([]byte(strings.Repeat("a", maxLineLen+10)))
	f.Add([]byte("mget " + strings.Repeat("7 ", 300) + "\r\n"))

	srv, err := New(Config{Spec: "sharded(2,hashtable/lazy)", Size: 512, UseEBR: true, MaxBurst: 8})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		fuzzSession(srv, data, &out)
		checkResponseShape(t, out.Bytes())
	})
}

// fuzzSession runs one connection worth of input through the real
// session loop, with the socket's two directions replaced by a byte
// reader and out — the same machinery serveConn wires up, minus the
// network.
func fuzzSession(srv *Server, in []byte, out io.Writer) {
	s := newTestSession(srv, bytes.NewReader(in), out)
	if s.ctx.Epoch != nil {
		defer s.ctx.Epoch.Unregister()
	}
	s.run()
}

// newTestSession builds a session the way serveConn does, over r and w
// in place of a connection. Its EBR record, if any, is the caller's to
// unregister.
func newTestSession(srv *Server, r io.Reader, w io.Writer) *session {
	ctx := &core.Ctx{ID: 1, Rng: xrand.New(1), Stats: &stats.Thread{}}
	if srv.dom != nil {
		ctx.Epoch = srv.dom.Register()
	}
	return newSession(srv, ctx, r, w)
}

// checkResponseShape asserts every line the server emitted is a legal
// protocol response. Garbage in must map to ERROR/CLIENT_ERROR/
// SERVER_ERROR lines — never to an unparseable frame that would
// desynchronize a conforming client.
func checkResponseShape(t *testing.T, out []byte) {
	t.Helper()
	for len(out) > 0 {
		nl := bytes.IndexByte(out, '\n')
		if nl < 0 {
			t.Fatalf("response ends mid-line: %q", out)
		}
		line := out[:nl]
		out = out[nl+1:]
		if len(line) == 0 || line[len(line)-1] != '\r' {
			t.Fatalf("response line without CRLF: %q", line)
		}
		line = line[:len(line)-1]
		switch {
		case bytes.HasPrefix(line, []byte("VALUE ")):
			var fa [4][]byte
			fields, bad := splitFields(line[len("VALUE "):], fa[:0])
			if bad || len(fields) < 3 {
				t.Fatalf("malformed VALUE line: %q", line)
			}
			n, ok := parseInt(fields[2])
			if !ok || n < 0 || n > maxDataLen || int64(len(out)) < n+2 {
				t.Fatalf("VALUE declares bad byte count: %q", line)
			}
			out = out[n:] // skip the data block and its CRLF below
			if out[0] != '\r' || out[1] != '\n' {
				t.Fatalf("data block not CRLF-terminated")
			}
			out = out[2:]
		case bytes.HasPrefix(line, []byte("CURSOR ")):
			var fa [2][]byte
			fields, bad := splitFields(line[len("CURSOR "):], fa[:0])
			if bad || len(fields) != 2 {
				t.Fatalf("malformed CURSOR line: %q", line)
			}
		case bytes.HasPrefix(line, []byte("STAT ")),
			bytes.HasPrefix(line, []byte("VERSION ")),
			bytes.HasPrefix(line, []byte("CLIENT_ERROR ")),
			bytes.HasPrefix(line, []byte("SERVER_ERROR ")):
		case bytes.Equal(line, []byte("END")),
			bytes.Equal(line, []byte("STORED")),
			bytes.Equal(line, []byte("NOT_STORED")),
			bytes.Equal(line, []byte("DELETED")),
			bytes.Equal(line, []byte("NOT_FOUND")),
			bytes.Equal(line, []byte("ERROR")):
		default:
			t.Fatalf("unrecognized response line: %q", line)
		}
	}
}
