// Paginated-iteration layer of the set abstraction: the Cursor optional
// interface, the opaque resume-token codec, and the page-collect
// machinery shared by every structure's cursor protocol.
//
// One-shot scans (scan.go) answer "what is in [lo, hi) right now?"; real
// services page: a feed request returns 50 items and a token, the next
// request resumes from the token. The contract here is built for that
// shape:
//
//   - bounded batches: each Next visits at most max mappings and returns
//     a resume position, so page cost is proportional to the page (plus
//     the structure's own traversal-to-position cost), never to the
//     whole range;
//   - no pinned state: the token is a pure key position. Nothing is held
//     server-side between calls — no snapshot retained, no lock held, no
//     epoch pinned — so tokens survive arbitrary churn, process
//     restarts, and (on elastic composites) any number of resizes;
//   - per-batch linearizability: every page is one atomic sub-snapshot
//     of its key window, produced by the same guard/snapshot/epoch
//     protocols the one-shot scans use. Consecutive pages observe the
//     structure at different instants — that is inherent to pagination
//     without pinning — but pages cover disjoint, ascending key windows,
//     so a paginated iteration never reports a key twice, and any key
//     that is continuously present (absent) for the whole iteration is
//     reported exactly once (never);
//   - ascending key order everywhere, including the hash tables: a page
//     must define "what comes after it", and key order is the only
//     resumable order a churning hash table can offer (bucket positions
//     shift under updates; keys do not). The hash tables serve that
//     order from their ordered key index (a sorted shadow maintained
//     under the same write brackets), so a page costs O(page + log n),
//     never O(table).
//
// Page collects record how much they materialize (pulls and pulled keys,
// overshoot and retries included) into the cursor pull counters, so the
// page-cost contract — O(page), not O(structure) or O(k·page) — is
// measurable, not just documented (see stats.Thread.PagePulls).
package core

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Cursor is an optional Set extension: resumable, bounded-batch
// iteration in ascending key order (pagination). CursorNext visits up to
// max mappings with pos <= k < hi, in ascending key order, and reports
// the position to resume from and whether the window is exhausted:
//
//   - done == true: every remaining mapping of [pos, hi) was visited
//     (next == hi). Further calls return (hi, true) and visit nothing.
//   - done == false: the page filled (or f stopped the replay early);
//     next is one past the last key delivered, so the following call
//     continues exactly where this one left off, never re-walking or
//     re-reporting delivered keys.
//
// Each call is individually linearizable: the visited batch is one
// atomic snapshot of the key window it covers, taken at one point during
// the call (the same protocols as Scan, at page granularity). No state
// is pinned between calls — the returned position is the only link —
// so resume positions stay valid under arbitrary concurrent updates and,
// on elastic composites, across concurrent Resizes.
//
// A max below 1 is treated as 1 (a page must make progress). Most
// callers should use OpenCursor/ResumeCursor and PageCursor.Next, which
// wrap the position in an opaque, integrity-checked token.
//
// f must not call back into the same structure (some protocols hold
// internal locks across the replay).
type Cursor interface {
	CursorNext(c *Ctx, pos, hi Key, max int, f func(k Key, v Value) bool) (next Key, done bool)
}

// CursorToken is the decoded form of a pagination token: the iteration
// window and the position the next page starts from. Lo <= Pos <= Hi
// always holds; Pos == Hi means the iteration is exhausted.
type CursorToken struct {
	Lo, Hi Key // the iteration window [Lo, Hi)
	Pos    Key // resume position of the next page
}

// Token wire format: magic ("csc1"), three big-endian 64-bit fields
// (Lo, Hi, Pos), and a CRC-32 of everything before it, base64url-encoded.
// The checksum (plus the decoded invariants) makes corruption an error
// rather than a silently wrong page window.
const (
	tokenMagic   = "csc1"
	tokenRawLen  = len(tokenMagic) + 3*8 + 4
	tokenWireLen = (tokenRawLen*8 + 5) / 6 // base64url, unpadded
)

// tokenEnc is strict base64url: non-canonical trailing bits are rejected,
// so every single-character corruption of a token is an error (either the
// alphabet/canonical check or the checksum catches it).
var tokenEnc = base64.RawURLEncoding.Strict()

// Encode renders the token in its opaque wire form: printable, URL-safe,
// and integrity-checked, so it can round-trip through HTTP query
// parameters, JSON, logs, and client storage unchanged.
func (t CursorToken) Encode() string {
	var b [tokenWireLen]byte
	return string(t.AppendEncode(b[:0]))
}

// AppendEncode appends the token's wire form (see Encode) to dst; with
// tokenWireLen bytes of spare capacity it does not allocate.
func (t CursorToken) AppendEncode(dst []byte) []byte {
	var raw [tokenRawLen]byte
	copy(raw[:], tokenMagic)
	binary.BigEndian.PutUint64(raw[4:], uint64(t.Lo))
	binary.BigEndian.PutUint64(raw[12:], uint64(t.Hi))
	binary.BigEndian.PutUint64(raw[20:], uint64(t.Pos))
	binary.BigEndian.PutUint32(raw[28:], tokenCRC(raw[:28]))
	return tokenEnc.AppendEncode(dst, raw[:])
}

// tokenCRC is crc32.ChecksumIEEE(b) computed in line: the library's
// version calls through a function variable, which moves the caller's
// stack buffer to the heap on every encode and decode.
func tokenCRC(b []byte) uint32 {
	crc := ^uint32(0)
	for _, v := range b {
		crc = crc32.IEEETable[byte(crc)^v] ^ crc>>8
	}
	return ^crc
}

// Token decoding errors. They are values, not formatted per call, so a
// corrupt token costs its decoder no allocation.
var (
	errTokenLength   = errors.New("core: cursor token has the wrong length")
	errTokenAlphabet = errors.New("core: cursor token is not base64url")
	errTokenHeader   = errors.New("core: cursor token has a bad header")
	errTokenChecksum = errors.New("core: cursor token checksum mismatch (corrupt token)")
	errTokenWindow   = errors.New("core: cursor token window is inconsistent")
)

// DecodeCursorToken parses a wire token. Any corruption — truncation,
// bit flips, wrong alphabet, inconsistent window — is an error, never a
// panic and never a silently different window.
func DecodeCursorToken(s string) (CursorToken, error) {
	return DecodeCursorTokenBytes([]byte(s))
}

// DecodeCursorTokenBytes is DecodeCursorToken over a byte slice, such as
// a token still in a network read buffer; it does not allocate.
func DecodeCursorTokenBytes(b []byte) (CursorToken, error) {
	if len(b) != tokenWireLen {
		return CursorToken{}, errTokenLength
	}
	var raw [tokenRawLen]byte
	if n, err := tokenEnc.Decode(raw[:], b); err != nil || n != tokenRawLen {
		return CursorToken{}, errTokenAlphabet
	}
	if string(raw[:4]) != tokenMagic {
		return CursorToken{}, errTokenHeader
	}
	if got, want := tokenCRC(raw[:28]), binary.BigEndian.Uint32(raw[28:]); got != want {
		return CursorToken{}, errTokenChecksum
	}
	t := CursorToken{
		Lo:  Key(binary.BigEndian.Uint64(raw[4:])),
		Hi:  Key(binary.BigEndian.Uint64(raw[12:])),
		Pos: Key(binary.BigEndian.Uint64(raw[20:])),
	}
	if t.Lo > t.Hi || t.Pos < t.Lo || t.Pos > t.Hi {
		return CursorToken{}, errTokenWindow
	}
	return t, nil
}

// Page fetches the next page of t's window from src — up to max
// mappings in ascending key order, delivered through f — and advances
// t.Pos past it. It reports whether the window is exhausted; on an
// exhausted token it visits nothing. The token is the whole state of a
// paginated iteration, so a stateless service pages by decoding a
// token, calling Page, and encoding the token again.
func (t *CursorToken) Page(c *Ctx, src Cursor, max int, f func(k Key, v Value) bool) (done bool) {
	if t.Pos >= t.Hi {
		return true
	}
	next, done := src.CursorNext(c, t.Pos, t.Hi, max, f)
	if next < t.Pos {
		next = t.Pos // defend the token invariant against a buggy impl
	}
	if next > t.Hi {
		next = t.Hi
	}
	t.Pos = next
	return done || t.Pos >= t.Hi
}

// PageCursor is the user-facing pagination handle: a structure, a
// window, and the current resume token. It holds no structure state —
// dropping it mid-iteration leaks nothing, and ResumeCursor rebuilds an
// equivalent handle from the token alone.
type PageCursor struct {
	src  Cursor
	tok  CursorToken
	done bool
}

// OpenCursor starts a paginated iteration over s's window [lo, hi).
// It fails only when s does not support cursors (every structure and
// combinator in this module does). A hi below lo opens an exhausted
// cursor.
func OpenCursor(s Set, lo, hi Key) (*PageCursor, error) {
	cur, ok := s.(Cursor)
	if !ok {
		return nil, fmt.Errorf("core: %T does not implement core.Cursor", s)
	}
	if hi < lo {
		hi = lo
	}
	return &PageCursor{src: cur, tok: CursorToken{Lo: lo, Hi: hi, Pos: lo}, done: lo >= hi}, nil
}

// ResumeCursor rebuilds a pagination handle from a wire token — the
// "next page" entry point of a stateless service. The token must come
// from a PageCursor over an equivalent structure; corrupt tokens are
// rejected.
func ResumeCursor(s Set, token string) (*PageCursor, error) {
	tok, err := DecodeCursorToken(token)
	if err != nil {
		return nil, err
	}
	cur, ok := s.(Cursor)
	if !ok {
		return nil, fmt.Errorf("core: %T does not implement core.Cursor", s)
	}
	return &PageCursor{src: cur, tok: tok, done: tok.Pos >= tok.Hi}, nil
}

// Next fetches one page: up to max mappings in ascending key order,
// delivered through f (early stop supported, like Scan). It returns the
// wire token to resume from and whether the iteration is exhausted. A
// call on an exhausted cursor visits nothing and reports done again.
func (p *PageCursor) Next(c *Ctx, max int, f func(k Key, v Value) bool) (token string, done bool) {
	if !p.done {
		p.done = p.tok.Page(c, p.src, max, f)
	}
	return p.tok.Encode(), p.done
}

// Token returns the current resume token without fetching a page.
func (p *PageCursor) Token() string { return p.tok.Encode() }

// Done reports whether the iteration is exhausted.
func (p *PageCursor) Done() bool { return p.done }

// clampPageMax normalizes a page size: a page must make progress.
func clampPageMax(max int) int {
	if max < 1 {
		return 1
	}
	return max
}

// ReplayPage drives one collected, already-consistent page through the
// user callback and derives the (next, done) pair of the cursor
// contract. exhausted says the collect saw the true end of the window
// (nothing in-range was left beyond the page); an early stop by f always
// resumes one past the last delivered key.
func ReplayPage(buf []ScanPair, exhausted bool, hi Key, f func(k Key, v Value) bool) (next Key, done bool) {
	for _, p := range buf {
		if !f(p.K, p.V) {
			return p.K + 1, false
		}
	}
	if exhausted || len(buf) == 0 {
		// An empty, non-exhausted page is impossible through this
		// module's collectors (a page only fills short at the window
		// end); treat it as exhausted rather than looping a caller.
		return hi, true
	}
	return buf[len(buf)-1].K + 1, false
}

// MergePage finishes an eagerly collected composite page: sort the
// disjoint per-part contributions (partitions never duplicate a key),
// trim to the page budget, and replay — the callback never runs more
// than max times, even if a misdeclared partition contributed duplicate
// boundary keys, because the trim precedes the replay. exhausted must
// say whether every part reported done; a trimmed page is never
// exhausted, and the overshoot cut by the trim is simply discarded and
// re-fetched by position on the next page. The trimmed union is exact:
// a part only withholds keys greater than everything it contributed, so
// the first max keys of the union are the structure's true first max
// keys at or beyond the position.
//
// The lazy composites page through StreamMergeNext (stream.go) instead;
// MergePage remains the primitive for snapshot sources that already
// hold their whole tail (and for reference implementations in tests).
func MergePage(buf []ScanPair, exhausted bool, hi Key, max int, f func(k Key, v Value) bool) (next Key, done bool) {
	max = clampPageMax(max)
	SortScanPairs(buf)
	if len(buf) > max {
		buf = buf[:max]
		exhausted = false
	}
	return ReplayPage(buf, exhausted, hi, f)
}

// GuardedPage runs one bounded page collect under g's optimistic
// protocol — the cursor counterpart of GuardedScan. collect must
// traverse the structure with atomic loads only, emitting in-range
// mappings in ascending key order starting at the page position, stop
// as soon as emit reports false (page full), and be restartable. The
// page replays through f only once it is known consistent; validation
// retries record into the cursor counters (never the scan ones), and
// the same brief per-instance writer barrier backstops churn.
func GuardedPage(c *Ctx, g *ScanGuard, hi Key, max int, collect func(emit func(k Key, v Value) bool), f func(k Key, v Value) bool) (next Key, done bool) {
	fr := getFrame()
	fr.max, fr.visited = clampPageMax(max), 0
	c.RecordCursorRetries(guardedCollect(c, g, func() {
		fr.buf, fr.full = fr.buf[:0], false
		collect(fr.page)
	}))
	c.RecordPagePull(fr.visited)
	next, done = ReplayPage(fr.buf, !fr.full, hi, f)
	fr.release()
	return next, done
}

// RecordCursorRetries forwards a cursor page's validation (or epoch)
// retry count, tolerating nil. Cursor pages keep their own counter so
// one-shot scan metrics and the paper's point-op metrics both stay
// unpolluted.
func (c *Ctx) RecordCursorRetries(n int) {
	if c != nil && c.Stats != nil {
		c.Stats.RecordCursorRetries(n)
	}
}

// RecordPagePull notes one bounded page collect that materialized keys
// mappings (keys counts everything the collect touched — invalidated
// optimistic attempts and overshoot included — which is exactly what
// makes overcollect visible), tolerating nil. Every leaf page protocol
// in this module records here, so a composite page's pull totals expose
// its true per-page key traffic.
func (c *Ctx) RecordPagePull(keys int) {
	if c != nil && c.Stats != nil {
		c.Stats.RecordPagePull(keys)
	}
}
