package list

import (
	"fmt"
	"sync/atomic"

	"csds/internal/core"
)

// WaitFree is a wait-free linked-list set in the style of Timnat,
// Braginsky, Kogan and Petrank ("Wait-Free Linked-Lists", OPODIS 2012),
// the family of algorithms the paper benchmarks as its wait-free
// comparator. Every update publishes an operation descriptor in a global
// state array and acquires a phase number; all threads help pending
// operations with phase numbers at most their own, so every operation
// completes in a bounded number of system-wide steps even if its owner
// stalls.
//
// The structure of the implementation shows, very concretely, the cost the
// paper's Figure 2 illustrates: every next pointer is a separate immutable
// box carrying (successor, mark, source descriptor) — "concurrency data"
// interposed between nodes — so traversals chase twice the pointers of the
// lazy list, updates allocate descriptors, and each operation increments a
// shared phase counter and scans the state array. That is why its
// throughput sits at roughly half of the blocking list's (Figure 1).
//
// Correctness of the helping protocol rests on three mechanisms:
//
//  1. Box identity. Every link mutation installs a freshly allocated box,
//     so a CAS can only succeed if the link is bit-identical to what the
//     helper read — stale windows can never be written back. The
//     inserted node's own link, the one word helpers write before the
//     node is reachable, is only ever replaced from the exact box its
//     window was installed over (wfWindow.prev), so a helper arriving
//     after the node is linked cannot re-aim it.
//  2. The bracket lemma. For a sorted list, the insertion bracket
//     (pred, curr) of key k can only change through a modification of
//     pred's link, so a successful CAS on pred's link proves the
//     k-neighbourhood did not change since the search.
//  3. Winner provenance. A marked box names the descriptor on whose behalf
//     it was installed (src). Deletion credit and insert-poisoning are
//     therefore decided by a single CAS, and helpers translate the
//     evidence into descriptor outcomes idempotently.
type WaitFree struct {
	head     *wfNode
	maxPhase atomic.Uint64
	state    [wfMaxThreads]atomic.Pointer[wfDesc]
	guard    core.ScanGuard // validates optimistic range scans
}

// wfMaxThreads bounds the helping array; Ctx.IDs must stay below it.
const wfMaxThreads = 256

// wfLink is an immutable (successor, mark, provenance) triple.
type wfLink struct {
	next   *wfNode
	marked bool
	src    *wfDesc // which descriptor installed the mark (or forced next)
}

type wfNode struct {
	key  core.Key
	val  core.Value
	link atomic.Pointer[wfLink]
}

// Descriptor kinds and states.
const (
	wfInsert = iota
	wfRemove
)

const (
	wfPending = iota // searching for a window / victim
	wfExecute        // insert: window installed; remove: victim chosen
	wfSuccess
	wfFailure
)

// wfWindow is the bracket an insert will CAS into, plus the box the
// node's own link held when the window was installed: the only box a
// helper may replace to aim the node through this window.
type wfWindow struct {
	pred     *wfNode
	predLink *wfLink
	curr     *wfNode
	prev     *wfLink
}

// wfDesc is an immutable operation descriptor; state transitions replace
// the descriptor in the owner's slot via CAS.
type wfDesc struct {
	phase  uint64
	kind   int
	key    core.Key
	val    core.Value
	node   *wfNode   // insert: the node being inserted
	victim *wfNode   // remove: the chosen target
	win    *wfWindow // insert: the installed bracket
	status int
}

func (d *wfDesc) pendingOp() bool { return d.status == wfPending || d.status == wfExecute }

// poisonDesc is the provenance sentinel for insert-failure marks: a marked
// link with src == poisonDesc means "this node was never linked; its
// insert lost to an existing key".
var poisonDesc = &wfDesc{}

// NewWaitFree builds an empty wait-free list.
func NewWaitFree(o core.Options) *WaitFree {
	tail := &wfNode{key: core.KeyMax}
	tail.link.Store(&wfLink{})
	head := &wfNode{key: core.KeyMin}
	head.link.Store(&wfLink{next: tail})
	return &WaitFree{head: head}
}

func init() {
	core.Register(core.Info{
		Name: "list/waitfree", Kind: "list", Progress: "wait-free",
		New:  func(o core.Options) core.Set { return NewWaitFree(o) },
		Desc: "wait-free descriptor/helping list (Timnat et al. 2012 style)",
	})
}

// search returns the bracket (pred, predLink, curr) with pred.key < k <=
// curr.key, physically snipping marked nodes along the way.
func (l *WaitFree) search(c *core.Ctx, k core.Key) (*wfNode, *wfLink, *wfNode) {
retry:
	for {
		pred := l.head
		predLink := pred.link.Load()
		curr := predLink.next
		for {
			currLink := curr.link.Load()
			for currLink.marked {
				snip := &wfLink{next: currLink.next}
				if !pred.link.CompareAndSwap(predLink, snip) {
					continue retry
				}
				// nil reclaim: descriptors may still reference this node
				// from the state array across brackets, so it is counted
				// but left to the GC (see pool.go).
				c.Retire(curr, nil)
				predLink = snip
				curr = currLink.next
				currLink = curr.link.Load()
			}
			if curr.key >= k {
				return pred, predLink, curr
			}
			pred = curr
			predLink = currLink
			curr = currLink.next
		}
	}
}

// slot validates and returns the worker's state-array index.
func (l *WaitFree) slot(c *core.Ctx) int {
	if c == nil {
		panic("waitfree list requires a non-nil Ctx")
	}
	if c.ID < 0 || c.ID >= wfMaxThreads {
		panic(fmt.Sprintf("waitfree list: Ctx.ID %d out of range [0,%d)", c.ID, wfMaxThreads))
	}
	return c.ID
}

// run publishes d in the owner's slot, helps all older pending operations,
// then drives its own operation to completion and returns its success.
func (l *WaitFree) run(c *core.Ctx, d *wfDesc) bool {
	tid := l.slot(c)
	l.state[tid].Store(d)
	l.helpAll(c, d.phase)
	for {
		cur := l.state[tid].Load()
		if !cur.pendingOp() {
			return cur.status == wfSuccess
		}
		l.helpOne(c, tid, cur)
	}
}

// helpAll helps every pending operation with phase <= phase to completion.
func (l *WaitFree) helpAll(c *core.Ctx, phase uint64) {
	for i := 0; i < wfMaxThreads; i++ {
		for {
			d := l.state[i].Load()
			if d == nil || !d.pendingOp() || d.phase > phase {
				break
			}
			l.helpOne(c, i, d)
		}
	}
}

// helpOne advances descriptor d (installed in slot tid) by at least one
// step. It returns when the slot no longer holds d or when d reached a
// final state.
func (l *WaitFree) helpOne(c *core.Ctx, tid int, d *wfDesc) {
	switch d.kind {
	case wfInsert:
		l.helpInsert(c, tid, d)
	case wfRemove:
		l.helpRemove(c, tid, d)
	}
}

// transition CASes the slot from d to a copy with the new fields.
func (l *WaitFree) finish(tid int, d *wfDesc, status int) {
	nd := *d
	nd.status = status
	l.state[tid].CompareAndSwap(d, &nd)
}

func (l *WaitFree) reSearch(tid int, d *wfDesc) {
	nd := *d
	nd.status = wfPending
	nd.victim = nil
	nd.win = nil
	l.state[tid].CompareAndSwap(d, &nd)
}

func (l *WaitFree) helpInsert(c *core.Ctx, tid int, d *wfDesc) {
	for l.state[tid].Load() == d {
		n := d.node
		nl := n.link.Load()
		if nl.marked {
			// The node's fate is already decided and recorded in its link.
			if nl.src == poisonDesc {
				l.finish(tid, d, wfFailure)
			} else {
				l.finish(tid, d, wfSuccess) // linked, then removed by someone
			}
			return
		}
		if d.status == wfPending {
			pred, predLink, curr := l.search(c, n.key)
			if curr == n {
				l.finish(tid, d, wfSuccess)
				return
			}
			if curr.key == n.key {
				// Key occupied by another node: poison ours so no stale
				// helper can ever link it, then record failure.
				if n.link.CompareAndSwap(nl, &wfLink{next: nl.next, marked: true, src: poisonDesc}) {
					l.finish(tid, d, wfFailure)
					return
				}
				continue // link changed under us; re-evaluate
			}
			// Install the bracket so every helper links through the same
			// window.
			nd := *d
			nd.status = wfExecute
			nd.win = &wfWindow{pred: pred, predLink: predLink, curr: curr, prev: nl}
			l.state[tid].CompareAndSwap(d, &nd)
			return // caller reloads the new descriptor
		}
		// wfExecute: link through the installed window.
		w := d.win
		if nl.src != d {
			if nl != w.prev {
				// Neither the box this window was installed over nor the
				// one aimed through it: n is linked and a neighbour has
				// rewritten its link since (an insert or snip behind it),
				// or d is stale and the finish below is a no-op. Either
				// way the link is no longer this operation's to write — a
				// late helper re-aiming a linked node cut the insertions
				// behind it out of the list.
				l.finish(tid, d, wfSuccess)
				return
			}
			// Aim the node at the window's successor, with provenance, so
			// stale writes can be detected by box identity.
			if !n.link.CompareAndSwap(nl, &wfLink{next: w.curr, src: d}) {
				continue
			}
		}
		// Membership CAS: whoever executes it (owner or helper) opens the
		// scan-guard window so concurrent optimistic scans detect it.
		l.guard.BeginWrite(c.Stat())
		linked := w.pred.link.CompareAndSwap(w.predLink, &wfLink{next: n})
		l.guard.EndWrite()
		if linked {
			l.finish(tid, d, wfSuccess)
			return
		}
		// Window went stale (bracket lemma: pred's link changed, so the
		// k-neighbourhood changed). Re-search via a fresh pending
		// descriptor; if a sibling helper actually linked n, the next
		// search finds curr == n and reports success.
		l.reSearch(tid, d)
		return
	}
}

func (l *WaitFree) helpRemove(c *core.Ctx, tid int, d *wfDesc) {
	for l.state[tid].Load() == d {
		if d.status == wfPending {
			_, _, curr := l.search(c, d.key)
			if curr.key != d.key {
				l.finish(tid, d, wfFailure)
				return
			}
			nd := *d
			nd.status = wfExecute
			nd.victim = curr
			l.state[tid].CompareAndSwap(d, &nd)
			return
		}
		// wfExecute: mark the victim with our provenance.
		v := d.victim
		vl := v.link.Load()
		if vl.marked {
			if vl.src == d {
				l.finish(tid, d, wfSuccess)
			} else {
				// Someone else's mark (another remove won, or a poisoned
				// insert — impossible for a reachable node, but harmless):
				// the victim is gone; search again.
				l.reSearch(tid, d)
			}
			return
		}
		l.guard.BeginWrite(c.Stat())
		markedIt := v.link.CompareAndSwap(vl, &wfLink{next: vl.next, marked: true, src: d})
		l.guard.EndWrite()
		if markedIt {
			l.finish(tid, d, wfSuccess)
			// Best-effort physical unlink.
			l.search(c, d.key)
			c.Retire(v, nil) // nil reclaim: see search's comment
			return
		}
	}
}

// Get implements core.Set: a plain traversal, like the lazy list's
// wait-free contains (bounded by the list length plus concurrent inserts).
func (l *WaitFree) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	c.EpochEnter()
	curr := l.head.link.Load().next
	for curr.key < k {
		curr = curr.link.Load().next
	}
	link := curr.link.Load()
	v, ok := curr.val, curr.key == k && !link.marked
	c.EpochExit()
	return v, ok
}

// Put implements core.Set.
func (l *WaitFree) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	c.EpochEnter()
	defer c.EpochExit()
	n := &wfNode{key: k, val: v}
	n.link.Store(&wfLink{})
	d := &wfDesc{
		phase: l.maxPhase.Add(1), kind: wfInsert,
		key: k, val: v, node: n, status: wfPending,
	}
	ok := l.run(c, d)
	c.RecordRestarts(0)
	return ok
}

// Remove implements core.Set.
func (l *WaitFree) Remove(c *core.Ctx, k core.Key) bool {
	c.EpochEnter()
	defer c.EpochExit()
	d := &wfDesc{
		phase: l.maxPhase.Add(1), kind: wfRemove,
		key: k, status: wfPending,
	}
	ok := l.run(c, d)
	c.RecordRestarts(0)
	return ok
}

// Len implements core.Set (quiesced use).
func (l *WaitFree) Len() int {
	n := 0
	for curr := l.head.link.Load().next; curr.key != core.KeyMax; {
		link := curr.link.Load()
		if !link.marked {
			n++
		}
		curr = link.next
	}
	return n
}

// Range implements core.Ranger: an in-order walk over unmarked nodes,
// quiesced-use like Len.
func (l *WaitFree) Range(f func(k core.Key, v core.Value) bool) {
	for curr := l.head.link.Load().next; curr.key != core.KeyMax; {
		link := curr.link.Load()
		if !link.marked && !f(curr.key, curr.val) {
			return
		}
		curr = link.next
	}
}

// Scan implements core.Scanner: the Harris-style plain traversal under
// the optimistic scan guard. Only the membership CASes (the insert's
// window link, the remove's mark) open guard windows — poisoning an
// unreachable node and physical snips leave the logical contents
// untouched. Atomic per call.
func (l *WaitFree) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	if lo >= hi {
		return true
	}
	c.EpochEnter()
	defer c.EpochExit()
	return core.GuardedScan(c, &l.guard, func(emit func(k core.Key, v core.Value)) {
		curr := l.head.link.Load().next
		for curr.key < lo {
			curr = curr.link.Load().next
		}
		for curr.key < hi {
			link := curr.link.Load()
			if !link.marked {
				emit(curr.key, curr.val)
			}
			curr = link.next
		}
	}, f)
}

// CursorNext implements core.Cursor: the Harris-style bounded page under
// the optimistic guard, resuming at the token position (see Scan for the
// guard-window argument). Each page is one atomic sub-snapshot.
func (l *WaitFree) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	if pos >= hi {
		return hi, true
	}
	c.EpochEnter()
	defer c.EpochExit()
	return core.GuardedPage(c, &l.guard, hi, max, func(emit func(k core.Key, v core.Value) bool) {
		curr := l.head.link.Load().next
		for curr.key < pos {
			curr = curr.link.Load().next
		}
		for curr.key < hi {
			link := curr.link.Load()
			if !link.marked && !emit(curr.key, curr.val) {
				return
			}
			curr = link.next
		}
	}, f)
}
