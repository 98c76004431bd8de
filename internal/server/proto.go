// Package server fronts any composite-spec structure of this module with
// the memcache text protocol over TCP — the system shape the paper uses
// to motivate CSDSs (Memcached's big concurrent hash table serving
// millions of connections). The package splits into three layers so each
// is testable without the one below:
//
//	proto.go    wire grammar: request parsing with hard frame limits —
//	            malformed, truncated or oversized input is a protocol
//	            error (or a fatal framing loss), never a panic;
//	handler.go  request execution against a core.Set: pipelined get
//	            bursts ride one core.Batcher MultiGet (and with it the
//	            shard flat-combining path), range/page stream ordered
//	            pages and return the opaque resumable cursor token;
//	server.go   connection machinery: one goroutine per connection
//	            that writes each burst's responses before it reads the
//	            next (TCP's own backpressure), a global in-flight limit
//	            that sheds load with SERVER_ERROR busy, and graceful
//	            drain that flushes in-flight responses, unregisters
//	            every connection's EBR record and quiesces the domain.
//
// The request path allocates nothing per request: the parser fills
// fixed arrays and reads data blocks in place from the reader's buffer,
// cursor tokens decode straight from the line, and responses render into
// one buffer per connection.
//
// The dialect: keys and values are the module's 64-bit integers, written
// in decimal (the paper's workloads; larger payloads are "a pointer",
// which a wire protocol renders as the application's own indirection).
// set stores only absent keys — the paper's put semantics — answering
// NOT_STORED for a present key exactly like memcached's add; overwrite
// is delete + set. See README "Serving over the network" for the full
// protocol table.
package server

import (
	"bufio"
	"fmt"
	"io"

	"csds/internal/core"
)

// Frame limits. Input beyond them is rejected before any allocation is
// sized by attacker-controlled numbers.
const (
	// maxLineLen bounds one command line (also the bufio.Reader size, so
	// an overlong line surfaces as bufio.ErrBufferFull — fatal, since the
	// line tail would desynchronize the stream).
	maxLineLen = 4096
	// maxKeysPerReq bounds the key list of one get/gets/mget/delete.
	maxKeysPerReq = 256
	// maxDataLen bounds a set data block: a decimal int64 is at most 20
	// bytes including the sign.
	maxDataLen = 20
	// maxPageMax bounds the page budget of one range/page request.
	maxPageMax = 4096
)

// Op enumerates the request kinds of the dialect.
type Op uint8

const (
	// OpError is a request that failed to parse: Err holds the response
	// line and whether the framing is lost (connection must close).
	OpError Op = iota
	// OpGet is get/gets/mget: look up Keys (gets adds a cas column).
	OpGet
	// OpSet is set/add: insert SetKey -> SetVal if absent.
	OpSet
	// OpDelete removes Keys[0].
	OpDelete
	// OpRange opens a cursor over [lo, hi) and returns the first page of
	// at most Max mappings plus the resume token.
	OpRange
	// OpPage resumes a cursor from a token and returns the next page.
	OpPage
	// OpStats reports the server's audit counters.
	OpStats
	// OpVersion reports the server version line.
	OpVersion
	// OpQuit closes the connection.
	OpQuit
)

// Request is one parsed client request. The Keys slice is reused across
// ReadRequest calls on the same Request value.
type Request struct {
	Op     Op
	Keys   []core.Key // get/gets/mget/delete key list
	SetKey core.Key   // set
	SetVal core.Value // set
	// Cursor is the range/page iteration: the window and the position
	// the page starts from (a range opens it, a page decodes it from its
	// token operand).
	Cursor  core.CursorToken
	Max     int  // range/page budget
	NoReply bool // set/delete noreply: suppress the response
	WithCAS bool // gets: include the cas column
	Err     *ProtoError
}

// ProtoError is a request-level protocol failure. Line is the complete
// response line (without CRLF) — "ERROR" for an unknown command,
// "CLIENT_ERROR ..." for a malformed one. Fatal marks framing loss: the
// response is still written, but the connection closes after it, because
// the byte stream can no longer be parsed safely.
type ProtoError struct {
	Line  string
	Fatal bool
}

func (e *ProtoError) Error() string { return e.Line }

// errBadToken answers a page whose token does not decode: a client
// mistake, never a server fault or a silently wrong page.
var errBadToken = &ProtoError{Line: "CLIENT_ERROR bad cursor token"}

// protoErrf builds a recoverable CLIENT_ERROR.
func protoErrf(format string, args ...any) *ProtoError {
	return &ProtoError{Line: "CLIENT_ERROR " + fmt.Sprintf(format, args...)}
}

// fatalErrf builds a framing-loss CLIENT_ERROR (connection closes).
func fatalErrf(format string, args ...any) *ProtoError {
	return &ProtoError{Line: "CLIENT_ERROR " + fmt.Sprintf(format, args...), Fatal: true}
}

// ReadRequest parses one request from br into req. The returned error is
// io-level only (io.EOF at a clean boundary, net errors, or a line
// overflowing br's buffer); every in-protocol problem — unknown command,
// malformed operand, oversized frame, bad data chunk — is reported as
// req.Op == OpError with req.Err set, so the caller answers it in
// request order like any other request. br must have been created with a
// buffer of at least maxLineLen bytes.
func ReadRequest(br *bufio.Reader, req *Request) error {
	req.Op = OpError
	req.Keys = req.Keys[:0]
	req.NoReply = false
	req.WithCAS = false
	req.Err = nil

	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			// The rest of the oversized line is unread; no resync point.
			req.Err = fatalErrf("line exceeds %d bytes", maxLineLen)
			return nil
		}
		if err == io.EOF && len(line) > 0 {
			// A final fragment with no newline: not a full request.
			req.Err = fatalErrf("truncated command line")
			return nil
		}
		return err
	}
	line = trimCRLF(line)
	cmd, rest := nextField(line)
	if len(cmd) == 0 {
		req.Err = &ProtoError{Line: "ERROR"}
		return nil
	}

	switch string(cmd) {
	case "get", "gets", "mget":
		req.WithCAS = string(cmd) == "gets"
		for {
			f, r := nextField(rest)
			if len(f) == 0 {
				break
			}
			rest = r
			if len(req.Keys) >= maxKeysPerReq {
				req.Err = protoErrf("more than %d keys in one request", maxKeysPerReq)
				return nil
			}
			k, ok := parseKey(f)
			if !ok {
				req.Err = protoErrf("bad key %q", f)
				return nil
			}
			req.Keys = append(req.Keys, k)
		}
		if len(req.Keys) == 0 {
			req.Err = protoErrf("%s needs at least one key", cmd)
			return nil
		}
		req.Op = OpGet
		return nil

	case "set", "add":
		// set <key> <flags> <exptime> <bytes> [noreply]\r\n<data>\r\n
		var fa [5][]byte
		fields, bad := splitFields(rest, fa[:0])
		if bad || len(fields) < 4 {
			req.Err = protoErrf("bad %s line: want <key> <flags> <exptime> <bytes> [noreply]", cmd)
			return nil
		}
		k, okK := parseKey(fields[0])
		n, okN := parseInt(fields[3])
		if len(fields) == 5 {
			if string(fields[4]) != "noreply" {
				req.Err = protoErrf("bad %s option %q", cmd, fields[4])
				return nil
			}
			req.NoReply = true
		}
		if !okN || n < 0 {
			req.Err = protoErrf("bad byte count %q", fields[3])
			return nil
		}
		if n > maxDataLen {
			// The declared block would have to be consumed to resync;
			// refuse to stream attacker-sized data and close instead.
			req.Err = fatalErrf("data block of %d bytes exceeds %d", n, maxDataLen)
			return nil
		}
		// The block is parsed in place in br's buffer (n+2 <= maxDataLen+2
		// bytes, far below its size) and consumed only once framed.
		data, err := br.Peek(int(n) + 2)
		if err != nil {
			if err == io.EOF {
				req.Err = fatalErrf("truncated data block")
				return nil
			}
			return err
		}
		framed := len(data)
		switch {
		case data[n] == '\r' && data[n+1] == '\n':
		case data[n] == '\n':
			// A bare \n after exactly n bytes also frames the block; the
			// byte after it already belongs to the next command.
			framed--
		default:
			// Anything else lost the framing: the declared count and the
			// bytes on the wire disagree.
			req.Err = fatalErrf("bad data chunk terminator")
			return nil
		}
		v, okV := parseInt(data[:n])
		br.Discard(framed)
		if !okK || !okV {
			if !okK {
				req.Err = protoErrf("bad key %q", fields[0])
			} else {
				req.Err = protoErrf("data block is not a decimal 64-bit value")
			}
			return nil
		}
		req.Op = OpSet
		req.SetKey = k
		req.SetVal = core.Value(v)
		return nil

	case "delete":
		var fa [2][]byte
		fields, bad := splitFields(rest, fa[:0])
		if bad || len(fields) < 1 {
			req.Err = protoErrf("bad delete line: want <key> [noreply]")
			return nil
		}
		if len(fields) == 2 {
			if string(fields[1]) != "noreply" {
				req.Err = protoErrf("bad delete option %q", fields[1])
				return nil
			}
			req.NoReply = true
		}
		k, ok := parseKey(fields[0])
		if !ok {
			req.Err = protoErrf("bad key %q", fields[0])
			return nil
		}
		req.Op = OpDelete
		req.Keys = append(req.Keys, k)
		return nil

	case "range":
		// range <lo> <hi> <max>: first page of the window [lo, hi).
		var fa [3][]byte
		fields, bad := splitFields(rest, fa[:0])
		if bad || len(fields) != 3 {
			req.Err = protoErrf("bad range line: want <lo> <hi> <max>")
			return nil
		}
		lo, okL := parseInt(fields[0])
		hi, okH := parseInt(fields[1])
		max, okM := parseInt(fields[2])
		if !okL || !okH {
			req.Err = protoErrf("bad range bound")
			return nil
		}
		if !okM || max < 1 || max > maxPageMax {
			req.Err = protoErrf("page budget must be in [1, %d]", maxPageMax)
			return nil
		}
		req.Op = OpRange
		if hi < lo {
			hi = lo // opens exhausted, as core.OpenCursor does
		}
		req.Cursor = core.CursorToken{Lo: core.Key(lo), Hi: core.Key(hi), Pos: core.Key(lo)}
		req.Max = int(max)
		return nil

	case "page":
		// page <token> <max>: resume from an opaque cursor token.
		var fa [2][]byte
		fields, bad := splitFields(rest, fa[:0])
		if bad || len(fields) != 2 {
			req.Err = protoErrf("bad page line: want <token> <max>")
			return nil
		}
		max, okM := parseInt(fields[1])
		if !okM || max < 1 || max > maxPageMax {
			req.Err = protoErrf("page budget must be in [1, %d]", maxPageMax)
			return nil
		}
		tok, err := core.DecodeCursorTokenBytes(fields[0])
		if err != nil {
			req.Err = errBadToken
			return nil
		}
		req.Op = OpPage
		req.Cursor, req.Max = tok, int(max)
		return nil

	case "stats":
		req.Op = OpStats
		return nil
	case "version":
		req.Op = OpVersion
		return nil
	case "quit":
		req.Op = OpQuit
		return nil
	}
	req.Err = &ProtoError{Line: "ERROR"}
	return nil
}

// trimCRLF strips one trailing \n and an optional \r before it.
func trimCRLF(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// nextField returns the first space-separated field of b and the rest.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && b[i] == ' ' {
		i++
	}
	j := i
	for j < len(b) && b[j] != ' ' {
		j++
	}
	return b[i:j], b[j:]
}

// splitFields appends b's space-separated fields to fields, up to its
// capacity — callers pass a fixed array's [:0], so nothing is allocated;
// bad reports leftover fields beyond it (a malformed line, not a
// truncation point).
func splitFields(b []byte, fields [][]byte) (_ [][]byte, bad bool) {
	for len(fields) < cap(fields) {
		f, r := nextField(b)
		if len(f) == 0 {
			return fields, false
		}
		fields = append(fields, f)
		b = r
	}
	f, _ := nextField(b)
	return fields, len(f) != 0
}

// parseInt parses a decimal int64 without allocating. It rejects empty
// input, bare signs, overflow, and any non-digit byte.
func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '-' || b[0] == '+' {
		neg = b[0] == '-'
		i++
		if i == len(b) {
			return 0, false
		}
	}
	const cutoff = (1 << 63) / 10 // magnitude parse in uint64 space
	var n uint64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, false
		}
		if n > cutoff {
			return 0, false
		}
		n = n*10 + uint64(d)
		if n > 1<<63 {
			return 0, false
		}
	}
	if neg {
		return -int64(n), true // 1<<63 wraps to MinInt64 exactly
	}
	if n == 1<<63 {
		return 0, false
	}
	return int64(n), true
}

// parseKey parses a decimal key and rejects the reserved sentinel values
// (the list structures' head/tail keys must never travel the wire).
func parseKey(b []byte) (core.Key, bool) {
	n, ok := parseInt(b)
	if !ok || n == int64(core.KeyMin) || n == int64(core.KeyMax) {
		return 0, false
	}
	return core.Key(n), true
}
