// Page frames: the thread-transient scratch under every guarded collect
// (GuardedScan, GuardedPage) and every composite merge (MergeScan,
// StreamMergeNext, StreamDrainNext).
//
// A collect needs a pair buffer and an emit callback that appends to it;
// a merge additionally needs one pull stream per part, a heap over the
// stream heads and a buffer per stream. All of it dies when the call
// returns, and a 32-way merge page makes 33 such calls — built fresh each
// time, the closures and buffers were the dominant cost of the ordered
// read path (166 allocs per operation on the repo benchmark's range
// workload). A frame holds the lot, with its callbacks bound once when
// the frame is created, and frames are pooled exactly like BatchScratch:
// unconditionally, because scratch owned by one call for its whole life
// needs no grace period, so GC-only mode gains as much as EBR mode.
//
// Take a frame per call and release it on return. Calls nest — a
// composite's pull lands in a leaf's guarded page, a user callback may
// scan another structure — and every nested call simply takes its own
// frame. A callback that panics mid-replay strands its frames to the
// garbage collector; nothing pooled is ever left half-used.
package core

import "sync"

// frameArenaPairs caps the pair arena a frame carves its streams'
// buffers from (64 KiB). Any page shape a service asks for fits — the
// arena holds about one page, or streamMinChunk per part — and a merge
// that outgrows it (a 10k-key page, a 1000-way partition) spills into
// append-grown buffers that die with the call, as all of them used to.
const frameArenaPairs = 4096

type pageFrame struct {
	// Collect role: the snapshot (or merged page) awaiting replay.
	buf     []ScanPair
	max     int  // page budget enforced by page
	full    bool // page refused a mapping: the window holds more than max
	visited int  // mappings page accepted, invalidated attempts included

	scan func(k Key, v Value)      // GuardedScan's emit: append to buf
	page func(k Key, v Value) bool // GuardedPage's emit: append to buf up to max
	sink func(k Key, v Value) bool // a part's replay callback: append to *dst

	// Merge role: the pull parameters every stream shares, the streams by
	// value, the heap over their heads, and the arena behind their buffers.
	dst     *[]ScanPair // buf, or the buffer of the stream being refilled
	c       *Ctx
	hi      Key
	chunk   int // keys per refill pull
	carve   int // arena pairs per stream
	streams []pageStream
	heap    mergeHeap
	arena   []ScanPair
}

var framePool = sync.Pool{New: func() any {
	fr := new(pageFrame)
	fr.scan = func(k Key, v Value) { fr.buf = append(fr.buf, ScanPair{k, v}) }
	fr.page = func(k Key, v Value) bool {
		if len(fr.buf) >= fr.max {
			fr.full = true
			return false
		}
		fr.buf = append(fr.buf, ScanPair{k, v})
		fr.visited++
		return true
	}
	fr.sink = func(k Key, v Value) bool {
		*fr.dst = append(*fr.dst, ScanPair{k, v})
		return true
	}
	return fr
}}

// getFrame takes a frame with an empty buf from the pool.
func getFrame() *pageFrame { return framePool.Get().(*pageFrame) }

// release returns the frame to the pool. The parts' cursors and the
// caller's context are dropped first: a pooled frame must not keep a
// retired shard map (or a dead worker's context) reachable.
func (fr *pageFrame) release() {
	fr.buf = fr.buf[:0]
	fr.c = nil
	clear(fr.streams)
	fr.streams = fr.streams[:0]
	framePool.Put(fr)
}

// open readies the merge role for parts streams over windows ending at
// hi, each pulling chunk keys per refill.
func (fr *pageFrame) open(c *Ctx, hi Key, parts, chunk int) {
	fr.c, fr.hi, fr.chunk = c, hi, chunk
	fr.carve = min(chunk, frameArenaPairs/parts)
	if cap(fr.streams) < parts {
		fr.streams = make([]pageStream, parts)
		fr.heap = make(mergeHeap, 0, parts)
	}
	fr.streams = fr.streams[:parts]
	if len(fr.arena) < parts*fr.carve {
		fr.arena = make([]ScanPair, parts*fr.carve)
	}
}

// stream opens pull stream i over src from pos. Its buffer is the i-th
// carve of the arena, capacity-clipped so a source that overfills its
// chunk reallocates instead of running into its neighbour.
func (fr *pageFrame) stream(i int, src Cursor, pos Key) *pageStream {
	s := &fr.streams[i]
	lo := i * fr.carve
	*s = pageStream{src: src, pos: pos, buf: fr.arena[lo : lo : lo+fr.carve]}
	return s
}

// refill pulls s's next chunk from its source through the pre-bound
// sink. It is a no-op while buffered mappings remain or once the source
// is exhausted; it reports whether the buffer holds data afterwards.
// Each refill is one linearizable bounded page on the source.
func (fr *pageFrame) refill(s *pageStream) bool {
	if s.i < len(s.buf) {
		return true
	}
	if s.srcDone {
		return false
	}
	s.buf, s.i = s.buf[:0], 0
	fr.dst = &s.buf
	next, done := s.src.CursorNext(fr.c, s.pos, fr.hi, fr.chunk, fr.sink)
	if len(s.buf) == 0 && !done {
		// The cursor contract makes an empty, non-exhausted page
		// impossible; treat one as exhaustion rather than spinning the
		// merge on a source that will never progress.
		done = true
	}
	s.pos = next
	s.srcDone = done
	return len(s.buf) > 0
}
