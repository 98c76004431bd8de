// faultConn is the transport face of the chaos plane: a net.Conn whose
// reads and writes pass through fault injectors. Slow connections stall
// before I/O, torn connections deliver a prefix of a write and die,
// dropped connections die outright. Deadlines, addresses and Close
// delegate to the real conn, so drain interrupts and idle eviction work
// unchanged on a faulted connection.
//
// Reads and writes both run on the session's goroutine, yet each
// direction draws from an injector of its own: firing is a pure function
// of (seed, point, stream, draw index), so separate streams keep a
// plan's read-side and write-side schedules independent — a read-side
// fire never shifts which write is torn.
package server

import (
	"errors"
	"net"

	"csds/internal/fault"
)

var (
	errInjectedDrop = errors.New("server: fault: injected connection drop")
	errInjectedTear = errors.New("server: fault: injected torn write")
)

type faultConn struct {
	net.Conn
	rd, wr *fault.Injector
}

// writeStream offsets a connection's id into the worker-stream index of
// its write-side injector, clear of every connection id (and so of
// every read-side and session stream).
const writeStream = 1 << 32

func (f *faultConn) Read(p []byte) (int, error) {
	f.rd.Delay(fault.ConnSlow)
	if f.rd.Fire(fault.ConnDrop) {
		f.Conn.Close()
		return 0, errInjectedDrop
	}
	return f.Conn.Read(p)
}

func (f *faultConn) Write(p []byte) (int, error) {
	f.wr.Delay(fault.ConnSlow)
	if f.wr.Fire(fault.ConnTorn) && len(p) > 1 {
		// Half the buffer reaches the wire, then the conn dies: the
		// client sees a truncated response it must not mistake for a
		// complete one (the protocol's CRLF/END framing guarantees it
		// cannot).
		n, _ := f.Conn.Write(p[: len(p)/2 : len(p)/2])
		f.Conn.Close()
		return n, errInjectedTear
	}
	if f.wr.Fire(fault.ConnDrop) {
		f.Conn.Close()
		return 0, errInjectedDrop
	}
	return f.Conn.Write(p)
}
