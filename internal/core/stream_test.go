package core

import (
	"testing"
)

// countingSet wraps a sliceSet and counts cursor pulls and the keys
// they materialize — the whitebox view of the streaming merge's refill
// behaviour.
type countingSet struct {
	*sliceSet
	pulls     int
	keyPulled int
}

func (s *countingSet) CursorNext(c *Ctx, pos, hi Key, max int, f func(k Key, v Value) bool) (Key, bool) {
	s.pulls++
	return s.sliceSet.CursorNext(c, pos, hi, max, func(k Key, v Value) bool {
		s.keyPulled++
		return f(k, v)
	})
}

// modPartition builds n counting parts holding keys 0..total-1 hashed by
// key mod n — a disjoint partition with interleaved key ranges, the
// worst case for an eager merge.
func modPartition(total Key, n int) ([]Set, []*countingSet) {
	parts := make([]*countingSet, n)
	for i := range parts {
		parts[i] = &countingSet{sliceSet: &sliceSet{}}
	}
	for k := Key(0); k < total; k++ {
		parts[k%Key(n)].keys = append(parts[k%Key(n)].keys, k)
	}
	sets := make([]Set, n)
	for i := range parts {
		sets[i] = parts[i]
	}
	return sets, parts
}

func TestStreamChunk(t *testing.T) {
	cases := []struct{ max, parts, want int }{
		{512, 32, 16},
		{512, 4, 128},
		{16, 32, streamMinChunk},
		{4, 32, 4}, // floor capped at the budget itself
		{100, 1, 100},
		{100, 0, 100},
	}
	for _, tc := range cases {
		if got := streamChunk(tc.max, tc.parts); got != tc.want {
			t.Errorf("streamChunk(%d, %d) = %d, want %d", tc.max, tc.parts, got, tc.want)
		}
	}
}

// TestStreamMergeSequential: the streaming merge paginates a mod
// partition exactly — ascending union, budget respected, done at the
// end — across page sizes on both sides of the chunk floor.
func TestStreamMergeSequential(t *testing.T) {
	const total = 500
	for _, max := range []int{1, 3, 16, 64, 500, 1000} {
		sets, _ := modPartition(total, 7)
		c := NewCtx(0)
		pos := Key(0)
		var got []Key
		for {
			n := 0
			next, done, aborted := StreamMergeNext(c, sets, pos, total, max, nil, func(k Key, v Value) bool {
				got = append(got, k)
				if v != Value(k) {
					t.Fatalf("key %d delivered with value %d", k, v)
				}
				n++
				return true
			})
			if aborted {
				t.Fatal("merge aborted without an abort hook")
			}
			if n > max {
				t.Fatalf("page delivered %d keys over budget %d", n, max)
			}
			if done {
				if next != total {
					t.Fatalf("done page returned next=%d, want %d", next, total)
				}
				break
			}
			if n == 0 {
				t.Fatal("empty page reported done=false")
			}
			if next != got[len(got)-1]+1 {
				t.Fatalf("page returned next=%d after last key %d", next, got[len(got)-1])
			}
			pos = next
		}
		if len(got) != total {
			t.Fatalf("max=%d: merged %d keys, want %d", max, len(got), total)
		}
		for i, k := range got {
			if k != Key(i) {
				t.Fatalf("max=%d: position %d holds key %d (not ascending/complete)", max, i, k)
			}
		}
	}
}

// TestStreamMergeBoundedPulls pins the tentpole arithmetic: a 32-part
// merge page of 512 keys must materialize at most 2*max keys across all
// parts — the old eager merge pulled up to 32*max.
func TestStreamMergeBoundedPulls(t *testing.T) {
	const parts = 32
	const max = 512
	sets, counters := modPartition(1<<16, parts)
	c := NewCtx(0)
	pos := Key(0)
	pages := 0
	for pos < 1<<15 { // a prefix of the domain is plenty
		next, done, _ := StreamMergeNext(c, sets, pos, 1<<16, max, nil, func(Key, Value) bool { return true })
		pages++
		if done {
			break
		}
		pos = next
	}
	var pulled int
	for _, p := range counters {
		pulled += p.keyPulled
	}
	if pulled > 2*max*pages {
		t.Fatalf("%d pages materialized %d keys, want <= %d (2*max per page)", pages, pulled, 2*max*pages)
	}
}

// TestStreamMergeEarlyStop: a callback that declines mid-merge ends the
// page at exactly that key, and the returned position resumes one past
// it.
func TestStreamMergeEarlyStop(t *testing.T) {
	sets, _ := modPartition(100, 3)
	c := NewCtx(0)
	calls := 0
	next, done, _ := StreamMergeNext(c, sets, 0, 100, 50, nil, func(k Key, v Value) bool {
		calls++
		return calls < 7
	})
	if done || calls != 7 {
		t.Fatalf("early stop: done=%v after %d calls, want false after 7", done, calls)
	}
	if next != 7 {
		t.Fatalf("early stop resumed at %d, want 7", next)
	}
}

// TestStreamMergeAbort: the per-pull hook aborting poisons the page
// before anything is delivered (the elastic stale-epoch path) — the
// merge replays only after its last pull, so an abort on the first pull,
// mid-fill or on a refill deep into the merge all deliver nothing, and a
// retry on the same context (same pooled frame) is then complete.
func TestStreamMergeAbort(t *testing.T) {
	sets, _ := modPartition(100, 4)
	c := NewCtx(0)
	for _, abortAt := range []int{1, 3, 5, 7} {
		pullsSeen, delivered := 0, 0
		_, _, aborted := StreamMergeNext(c, sets, 0, 100, 60, func(part int) bool {
			pullsSeen++
			return pullsSeen < abortAt
		}, func(Key, Value) bool { delivered++; return true })
		if !aborted {
			t.Fatalf("abort hook returning false on pull %d did not abort the merge", abortAt)
		}
		if delivered != 0 {
			t.Fatalf("page aborted on pull %d had already delivered %d keys", abortAt, delivered)
		}
		var got []Key
		next, done, aborted := StreamMergeNext(c, sets, 0, 100, 60, func(int) bool { return true }, func(k Key, v Value) bool {
			got = append(got, k)
			return true
		})
		if aborted || done || next != 60 || len(got) != 60 {
			t.Fatalf("retry after abort: next=%d done=%v aborted=%v with %d keys, want 60 false false 60", next, done, aborted, len(got))
		}
		for i, k := range got {
			if k != Key(i) {
				t.Fatalf("retry after abort: position %d holds key %d", i, k)
			}
		}
	}
}

// TestStreamDrainSequential: the ordered drain paginates a range
// partition exactly and never touches parts beyond the budget fill.
func TestStreamDrainSequential(t *testing.T) {
	// Range partition: part i owns [i*100, (i+1)*100).
	parts := make([]*countingSet, 5)
	for i := range parts {
		parts[i] = &countingSet{sliceSet: &sliceSet{}}
		for k := Key(i * 100); k < Key((i+1)*100); k += 2 {
			parts[i].keys = append(parts[i].keys, k)
		}
	}
	hundreds := func(pos Key) (Cursor, Key) { return parts[pos/100], (pos/100 + 1) * 100 }
	c := NewCtx(0)
	var got []Key
	pos := Key(0)
	for {
		next, done, unspent := StreamDrainNext(c, hundreds, pos, 500, 37, len(parts), func(k Key, v Value) bool {
			got = append(got, k)
			return true
		})
		if unspent != 0 {
			t.Fatalf("page from %d left %d of its budget unspent under a pull cap it cannot reach", pos, unspent)
		}
		if done {
			break
		}
		pos = next
	}
	if len(got) != 250 {
		t.Fatalf("drained %d keys, want 250", len(got))
	}
	for i, k := range got {
		if k != Key(2*i) {
			t.Fatalf("position %d holds key %d, want %d", i, k, 2*i)
		}
	}
	// A one-page drain with a small budget must not touch later parts.
	for _, p := range parts {
		p.pulls = 0
	}
	// Ten even keys 0..18 fill the budget; the resume position is one
	// past the last delivered key.
	all := func(Key, Value) bool { return true }
	if next, done, unspent := StreamDrainNext(c, hundreds, 0, 500, 10, len(parts), all); done || next != 19 || unspent != 0 {
		t.Fatalf("bounded drain returned next=%d done=%v unspent=%d, want 19 false 0", next, done, unspent)
	}
	for i, p := range parts[1:] {
		if p.pulls != 0 {
			t.Fatalf("part %d pulled %d times on a page confined to part 0", i+1, p.pulls)
		}
	}
	// The pull cap: two parts hold 100 keys, so a 130-key page capped at
	// two pulls gives up at the third part's start with 30 unspent — and
	// says so, instead of claiming a full or exhausted page.
	for _, p := range parts {
		p.pulls = 0
	}
	if next, done, unspent := StreamDrainNext(c, hundreds, 0, 500, 130, 2, all); done || next != 200 || unspent != 30 {
		t.Fatalf("capped drain returned next=%d done=%v unspent=%d, want 200 false 30", next, done, unspent)
	}
	if parts[0].pulls != 1 || parts[1].pulls != 1 || parts[2].pulls != 0 {
		t.Fatalf("capped drain pulled parts %d/%d/%d times, want 1/1/0", parts[0].pulls, parts[1].pulls, parts[2].pulls)
	}
	// A budget filling exactly on a part's last key is exhausted only
	// when that part ends the window.
	if next, done, _ := StreamDrainNext(c, hundreds, 0, 500, 50, len(parts), all); done || next != 99 {
		t.Fatalf("page filling at a part's end returned next=%d done=%v, want 99 false", next, done)
	}
	if next, done, _ := StreamDrainNext(c, hundreds, 400, 500, 50, len(parts), all); !done || next != 500 {
		t.Fatalf("page filling at the window's end returned next=%d done=%v, want 500 true", next, done)
	}
	// An early stop resumes one past the key that stopped it.
	n := 0
	if next, done, unspent := StreamDrainNext(c, hundreds, 90, 500, 50, len(parts), func(Key, Value) bool { n++; return n < 7 }); done || next != 103 || unspent != 0 {
		t.Fatalf("stopped drain returned next=%d done=%v unspent=%d, want 103 false 0", next, done, unspent)
	}
}

// TestPageStreamDefensive: a buggy source returning an empty non-done
// page is treated as drained instead of spinning the merge or the drain.
type emptyLiar struct{ sliceSet }

func (s *emptyLiar) CursorNext(c *Ctx, pos, hi Key, max int, f func(k Key, v Value) bool) (Key, bool) {
	return pos, false // never delivers, never finishes
}

func TestPageStreamDefensive(t *testing.T) {
	all := func(Key, Value) bool { return true }
	next, done, _ := StreamMergeNext(NewCtx(0), []Set{&emptyLiar{}}, 0, 100, 8, nil, all)
	if !done || next != 100 {
		t.Fatalf("merge over a liar source returned next=%d done=%v", next, done)
	}
	liar := func(Key) (Cursor, Key) { return &emptyLiar{}, 100 }
	if next, done, _ := StreamDrainNext(NewCtx(0), liar, 0, 100, 8, 1, all); !done || next != 100 {
		t.Fatalf("drain over a liar source returned next=%d done=%v", next, done)
	}
}

// Scan gives sliceSet the one-shot protocol MergeScan collects through.
func (s *sliceSet) Scan(c *Ctx, lo, hi Key, f func(k Key, v Value) bool) bool {
	for _, k := range s.keys {
		if k >= lo && k < hi && !f(k, Value(k)) {
			return false
		}
	}
	return true
}

// TestMergeScan: the collect-and-sort scan delivers the ascending union
// of a mod partition's window, honours early stop, and an afterPart
// abort — on any part — delivers nothing and leaves the retry complete.
func TestMergeScan(t *testing.T) {
	sets, _ := modPartition(200, 5)
	c := NewCtx(0)
	var got []Key
	finished, aborted := MergeScan(c, sets, 20, 120, nil, func(k Key, v Value) bool {
		got = append(got, k)
		return v == Value(k)
	})
	if !finished || aborted || len(got) != 100 {
		t.Fatalf("MergeScan = (%v, %v) with %d keys, want (true, false) with 100", finished, aborted, len(got))
	}
	for i, k := range got {
		if k != Key(20+i) {
			t.Fatalf("position %d holds key %d, want %d", i, k, 20+i)
		}
	}
	calls := 0
	if finished, _ := MergeScan(c, sets, 0, 200, nil, func(Key, Value) bool { calls++; return calls < 7 }); finished || calls != 7 {
		t.Fatalf("early stop: finished=%v after %d calls, want false after 7", finished, calls)
	}
	for abortAt := range sets {
		delivered := 0
		_, aborted := MergeScan(c, sets, 0, 200, func(part int) bool { return part != abortAt }, func(Key, Value) bool { delivered++; return true })
		if !aborted || delivered != 0 {
			t.Fatalf("abort after part %d: aborted=%v with %d keys delivered", abortAt, aborted, delivered)
		}
		n := 0
		if finished, aborted := MergeScan(c, sets, 0, 200, func(int) bool { return true }, func(k Key, _ Value) bool { n++; return k == Key(n-1) }); !finished || aborted || n != 200 {
			t.Fatalf("retry after abort: (%v, %v) with %d keys", finished, aborted, n)
		}
	}
}
