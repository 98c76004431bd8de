// Streaming pull layer of the cursor machinery: pageStream (a bounded
// per-source pull buffer over any Cursor) and the composite reads built
// on it — the lazy k-way page merge, the ordered drain and the one-shot
// collect-and-replay scan, the last two walking a partition's Segments
// (stripes of a range partition, key blocks of a block-hashed one).
//
// PR 4's composite cursors collected eagerly: every part contributed its
// first max in-range keys per page and the sorted union was trimmed to
// the budget, discarding up to (k-1)·max keys per page — the documented
// k× overcollect of wide composites. The streaming architecture inverts
// the dataflow: each part gets a pull stream that fetches small refill
// chunks (~max/k keys, floored at streamMinChunk) on demand, and a heap
// merge consumes stream heads lazily, stopping exactly at the page
// budget. A 32-way merge page now materializes about one page worth of
// keys instead of 32, and the refill counters (stats.Thread.PagePulls /
// PagePullKeys) make the difference measurable. Streams, heap and
// buffers all live in the call's pooled page frame (frame.go), so a
// merge allocates nothing in steady state.
//
// The consistency story is unchanged from the eager merge: every pull is
// one linearizable bounded page on its part (one atomic sub-snapshot),
// parts partition the key space (no duplicates to resolve), and the
// merge delivers the union in ascending order. Tokens stay position-only
// — per-part stream positions live only inside a single CursorNext call,
// never across pages — so resume positions survive churn, restarts and
// resizes exactly as before; overshoot buffered beyond the delivered
// boundary is discarded and re-fetched by position on the next page.
package core

// streamMinChunk floors the per-part refill size: below this, per-pull
// seek costs (position descent, guard validation) dominate the keys
// moved and the merge thrashes its sources.
const streamMinChunk = 8

// StreamMinChunk exports the per-part refill floor for consumers that
// size cursor pages around it (the tuner floors its page-length hint at
// width*StreamMinChunk: smaller pages make every per-shard pull fetch
// the floor chunk and discard most of it).
const StreamMinChunk = streamMinChunk

// streamChunk sizes per-part refill pulls so the initial fill of a k-way
// merge materializes about one page budget in total (max/k per part),
// floored at streamMinChunk and capped at the budget itself.
func streamChunk(max, parts int) int {
	if parts < 1 {
		parts = 1
	}
	chunk := max / parts
	if chunk < streamMinChunk {
		chunk = streamMinChunk
	}
	if chunk > max {
		chunk = max
	}
	return chunk
}

// pageStream adapts one Cursor source into a bounded pull buffer: the
// owning frame's refill fetches the next ≤ chunk in-range mappings from
// the stream's private position, Peek/Pop consume them in ascending
// order. The stream holds no source state beyond that position —
// dropping it mid-page leaks nothing, which is what keeps composite
// tokens position-only. Streams live by value in their frame
// (frame.go), which also holds what they share: context, window end,
// chunk size and the sink their pulls deliver into.
type pageStream struct {
	src     Cursor
	pos     Key
	buf     []ScanPair
	i       int
	srcDone bool
}

// Peek returns the buffered head without consuming it.
func (s *pageStream) Peek() (ScanPair, bool) {
	if s.i < len(s.buf) {
		return s.buf[s.i], true
	}
	return ScanPair{}, false
}

// Pop consumes and returns the buffered head.
func (s *pageStream) Pop() (ScanPair, bool) {
	if s.i < len(s.buf) {
		p := s.buf[s.i]
		s.i++
		return p, true
	}
	return ScanPair{}, false
}

// Drained reports that the source is exhausted and the buffer is empty:
// this stream will never produce another mapping.
func (s *pageStream) Drained() bool { return s.srcDone && s.i >= len(s.buf) }

// streamHead is one heap slot of the k-way merge: the cached head key of
// a stream plus which part it came from (for the per-pull hook).
type streamHead struct {
	key  Key
	s    *pageStream
	part int
}

// mergeHeap is a hand-rolled binary min-heap over stream heads, keyed by
// head key. Partitions are disjoint, so ties cannot occur between live
// streams; if they did (a misdeclared partition) the merge would still
// respect the page budget, merely delivering the duplicate.
type mergeHeap []streamHead

func (h mergeHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].key <= h[i].key {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (h mergeHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l].key < h[min].key {
			min = l
		}
		if r < len(h) && h[r].key < h[min].key {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// StreamMergeNext pages a disjoint partition in ascending key order with
// lazy per-part pulls: each part streams refill chunks of ~max/len(parts)
// keys (min streamMinChunk) through its own linearizable cursor, and a
// heap merge collects the union until the page budget fills or every
// stream drains — the streaming replacement for the eager
// collect-everything merge, cutting the per-page overcollect from
// k×max to roughly one refill chunk per part.
//
// afterPull, when non-nil, runs after every pull from parts[i]; returning
// false aborts the merge (aborted == true) — the hook elastic composites
// use to detect a stale shard map mid-page. The merged page replays
// through f only after the last pull and its check, so an aborted page
// has delivered nothing and can simply be retried. Parts must partition
// the key space (no shared keys) and every part must implement Cursor.
//
// Like every composite page, delivered keys come from per-part
// sub-snapshots taken at pull time; buffered overshoot beyond the last
// delivered key is discarded and re-fetched by position on the next call.
func StreamMergeNext(c *Ctx, parts []Set, pos, hi Key, max int, afterPull func(part int) bool, f func(k Key, v Value) bool) (next Key, done bool, aborted bool) {
	if pos >= hi || len(parts) == 0 {
		return hi, true, false
	}
	fr := getFrame()
	exhausted, aborted := fr.merge(c, parts, pos, hi, clampPageMax(max), afterPull)
	if !aborted {
		next, done = ReplayPage(fr.buf, exhausted, hi, f)
	}
	fr.release()
	return next, done, aborted
}

// merge runs the pulls and the heap merge of StreamMergeNext into
// fr.buf; exhausted says every stream drained inside the budget.
func (fr *pageFrame) merge(c *Ctx, parts []Set, pos, hi Key, max int, afterPull func(part int) bool) (exhausted, aborted bool) {
	fr.open(c, hi, len(parts), streamChunk(max, len(parts)))
	h := fr.heap[:0]
	for i, p := range parts {
		s := fr.stream(i, p.(Cursor), pos)
		fr.refill(s) // an empty result marks the stream drained
		if afterPull != nil && !afterPull(i) {
			return false, true
		}
		if head, ok := s.Peek(); ok {
			h = append(h, streamHead{key: head.K, s: s, part: i})
			h.siftUp(len(h) - 1)
		}
	}
	for len(h) > 0 {
		top := &h[0]
		pair, _ := top.s.Pop()
		fr.buf = append(fr.buf, pair)
		if len(fr.buf) == max {
			// Budget filled: decide exhaustion without another refill (a
			// refill here would be pure overcollect — its keys would be
			// discarded and re-fetched by the next page anyway).
			return len(h) == 1 && top.s.Drained(), false
		}
		// Restore the heap: refill the popped stream if its buffer
		// emptied (the merge may not deliver past a live stream's
		// position), then re-key or drop its slot.
		if _, ok := top.s.Peek(); !ok && !top.s.Drained() {
			fr.refill(top.s)
			if afterPull != nil && !afterPull(top.part) {
				return false, true
			}
		}
		if head, ok := top.s.Peek(); ok {
			top.key = head.K
			h.siftDown(0)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			h.siftDown(0)
		}
	}
	return true, false
}

// Segments names a partition's layout for the ordered walks: for a key
// position it returns the part owning that key and the exclusive end
// (> pos) of the contiguous key window that part owns around it — one
// stripe of a range partition, one aligned key block of a block-hashed
// one. KeyMax ends the last window (no window holds KeyMax itself: it
// bounds every scan and page). One part may own many windows.
type Segments func(pos Key) (part int, end Key)

// MergeScan is the one-shot scan of a partition too wide to walk: it
// collects every part's atomic sub-snapshot of [lo, hi) through the
// part's own linearizable scan, then replays the disjoint union in
// ascending order segment by segment — each part's sub-snapshot is
// already ascending and segment names the part owning each window, so
// one read offset per part orders the union without a sort or a heap.
// finished is false iff f stopped the replay early. Per-key consistency
// is inherited from the per-part snapshots: every reported presence or
// absence was true at some instant inside the call.
//
// afterPart, when non-nil, runs after parts[i] is collected; returning
// false aborts the scan before anything is delivered (aborted == true),
// like StreamMergeNext's afterPull. Every part must implement Scanner.
func MergeScan(c *Ctx, parts []Set, segment Segments, lo, hi Key, afterPart func(part int) bool, f func(k Key, v Value) bool) (finished, aborted bool) {
	fr := getFrame()
	fr.dst = &fr.buf
	fr.runs = fr.runs[:0]
	for i, p := range parts {
		start := len(fr.buf)
		p.(Scanner).Scan(c, lo, hi, fr.sink)
		fr.runs = append(fr.runs, partRun{next: start, end: len(fr.buf)})
		if afterPart != nil && !afterPart(i) {
			fr.release()
			return false, true
		}
	}
	finished = fr.replaySegments(segment, lo, f)
	fr.release()
	return finished, false
}

// replaySegments delivers fr.buf, collected as one ascending run per
// part, in key order: the owner of the current segment delivers its run
// up to the segment's end, then the next segment's owner takes over.
// When the owner has nothing in its segment (sparse data under a wide
// window, where empty blocks would dwarf the keys) the replay jumps to
// the smallest pending head across the parts instead — n comparisons —
// and continues from that key's segment, so every step delivers or is
// followed by one that does.
func (fr *pageFrame) replaySegments(segment Segments, lo Key, f func(k Key, v Value) bool) bool {
	buf, runs := fr.buf, fr.runs
	left := len(buf)
	part, end := segment(lo)
	for left > 0 {
		r := &runs[part]
		from := r.next
		for ; r.next < r.end && buf[r.next].K < end; r.next++ {
			if !f(buf[r.next].K, buf[r.next].V) {
				return false
			}
		}
		if r.next > from {
			left -= r.next - from
			part, end = segment(end)
			continue
		}
		part = -1
		for i, q := range runs {
			if q.next < q.end && (part < 0 || buf[q.next].K < buf[runs[part].next].K) {
				part = i
			}
		}
		// The head's own part delivers it even if segment disagreed — a
		// misdeclared partition still terminates.
		_, end = segment(buf[runs[part].next].K)
	}
	return true
}

// StreamDrainNext pages a partition that can be walked in key order —
// the stripes of a range partition, the aligned key blocks of a
// block-hashed one — by draining its segments in that order through one
// bounded pull stream: no merge, no overshoot, and parts beyond the one
// where the budget fills are never touched. Each segment visited is one
// pull, one atomic sub-snapshot of [pos, end) on its owning part's
// cursor; the concatenation is ascending whenever the parts' own cursors
// are. A part owning many segments is pulled once per segment, at
// different instants.
//
// The drain gives up after pulls pulls: with budget left and the window
// not exhausted it returns the position reached, done == false and the
// unspent budget (> 0), so a caller whose segments may all be empty
// (sparse data under a huge hi) can finish the same page another way. In
// every other outcome — page full, window exhausted, f stopped the
// delivery — unspent is 0 and (next, done) are final.
func StreamDrainNext(c *Ctx, parts []Set, segment Segments, pos, hi Key, max, pulls int, f func(k Key, v Value) bool) (next Key, done bool, unspent int) {
	if pos >= hi {
		return hi, true, 0
	}
	remaining := clampPageMax(max)
	fr := getFrame()
	defer fr.release()
	for ; pulls > 0 && pos < hi; pulls-- {
		part, end := segment(pos)
		end = min(end, hi)
		fr.open(c, end, 1, remaining)
		s := fr.stream(0, parts[part].(Cursor), pos)
		for fr.refill(s) {
			pair, _ := s.Pop()
			if !f(pair.K, pair.V) {
				return pair.K + 1, false, 0
			}
			remaining--
			if remaining == 0 {
				if s.Drained() && end == hi {
					// Budget filled exactly at the end of the window.
					return hi, true, 0
				}
				// Later parts (or this one) may still hold keys.
				return pair.K + 1, false, 0
			}
		}
		pos = end
	}
	if pos >= hi {
		return hi, true, 0
	}
	return pos, false, remaining
}
