// Package htm emulates best-effort hardware lock elision (Intel TSX as used
// in Section 5.4 of the paper) in portable Go.
//
// Go has no transactional-memory intrinsics, so we reproduce the *protocol*
// rather than the silicon (the substitution is documented in DESIGN.md §1):
//
//   - A critical section is first executed speculatively. Instead of
//     blocking on the node locks it needs, the speculative attempt
//     try-acquires them; any failure is a data conflict (in real HTM two
//     write phases touching the same cache lines abort each other — here
//     two write phases touching the same nodes fail each other's trylocks).
//   - An injected interrupt (context switch, I/O — the fault plane's
//     htm.abort point, drawn once per attempt at Acq.Commit) aborts the
//     in-flight speculation *before any write*; the attempt releases
//     everything it holds and only then is the worker descheduled, so a
//     descheduled thread never holds a lock. This mirrors TSX's
//     abort-on-interrupt, which the paper turns from a limitation into
//     the key feature.
//   - After Attempts failed speculations the section falls back to the
//     pessimistic path: blocking lock acquisition (the "actual locks",
//     §5.4). Because speculators contend on the same per-node locks, a
//     fallback holder automatically forbids concurrent speculation on the
//     nodes it owns — the effect of the fallback-lock subscription in real
//     lock elision.
//
// Conflict granularity is the node lock rather than the cache line; for the
// CSDS write phases in this repository (1–3 adjacent nodes) this is the
// same granularity the paper's Equations (7)–(8) model.
//
// The body of a critical section is written once and runs under either
// mode through the Acq facade:
//
//	st := region.Run(th, inj, func(a *htm.Acq) htm.Status {
//	    if !a.Lock(&pred.lock) || !a.Lock(&curr.lock) {
//	        return htm.Conflict
//	    }
//	    if !validate(pred, curr) {
//	        return htm.ValidateFail // caller restarts the operation
//	    }
//	    if !a.Commit() {
//	        return htm.Interrupted
//	    }
//	    ... writes ...
//	    return htm.Committed
//	})
package htm

import (
	"csds/internal/fault"
	"csds/internal/stats"
)

// Status is the outcome of one critical-section execution.
type Status int

const (
	// Committed: the write phase executed and its locks were released.
	Committed Status = iota
	// ValidateFail: optimistic validation failed; the *operation* must
	// restart from its parse phase (this is not an HTM abort).
	ValidateFail
	// Conflict: a speculative attempt lost a trylock race (data conflict).
	Conflict
	// Interrupted: an injected interrupt doomed the speculation.
	Interrupted
	// Capacity: the speculation touched more locks than the emulated
	// hardware write-set capacity.
	Capacity
)

// String names the status for reports.
func (s Status) String() string {
	switch s {
	case Committed:
		return "committed"
	case ValidateFail:
		return "validate-fail"
	case Conflict:
		return "conflict"
	case Interrupted:
		return "interrupted"
	case Capacity:
		return "capacity"
	}
	return "unknown"
}

// NodeLock is the lock type elidable critical sections operate on; both
// locks.TAS and locks.Ticket satisfy it.
type NodeLock interface {
	Acquire(t *stats.Thread)
	TryAcquire(t *stats.Thread) bool
	Release()
}

// maxHeld is the emulated write-set capacity in locks. CSDS write phases
// hold 1–3 (skip lists: one per level); beyond this the hardware analogue
// would overflow its speculative buffer.
const maxHeld = 32

// Acq is the acquisition facade handed to a critical-section body. In
// speculative mode Lock try-acquires and may fail; in pessimistic mode it
// blocks and always succeeds.
type Acq struct {
	spec   bool
	th     *stats.Thread
	inj    *fault.Injector
	held   [maxHeld]NodeLock
	nHeld  int
	status Status
}

// Speculative reports whether this execution is a speculative attempt.
// Bodies normally do not need it; it exists for tests and diagnostics.
func (a *Acq) Speculative() bool { return a.spec }

// Lock acquires l under the current mode. It returns false iff the
// speculative attempt must abort (conflict or capacity); the body must
// then return immediately with htm.Conflict (or the value of
// a.AbortStatus() for precision — Run treats any non-Committed,
// non-ValidateFail return as an abort and consults its own bookkeeping).
func (a *Acq) Lock(l NodeLock) bool {
	if a.spec {
		if a.nHeld >= maxHeld {
			a.status = Capacity
			return false
		}
		// nil stats: a speculative trylock failure is a transactional
		// conflict, not a lock-level event, so it must not pollute the
		// lock wait/trylock counters the figures report.
		if !l.TryAcquire(nil) {
			a.status = Conflict
			return false
		}
		a.held[a.nHeld] = l
		a.nHeld++
		return true
	}
	if a.nHeld >= maxHeld {
		// A body that needs more than maxHeld locks cannot be elided and
		// cannot be expressed through Acq at all — programming error.
		panic("htm: critical section exceeds lock capacity")
	}
	l.Acquire(a.th)
	a.held[a.nHeld] = l
	a.nHeld++
	return true
}

// Commit is the interrupt point, called after validation and immediately
// before the body's writes: a speculative attempt draws the fault plane's
// htm.abort here, once, and aborts as Interrupted when it fires. In
// pessimistic mode it always returns true: a real lock holder completes
// its writes even if descheduled (that is precisely the hazard the elided
// mode removes).
func (a *Acq) Commit() bool {
	if a.spec && a.inj.Fire(fault.HTMAbort) {
		a.status = Interrupted
		return false
	}
	return true
}

// AbortStatus returns the abort cause recorded by a failed Lock/Commit.
func (a *Acq) AbortStatus() Status { return a.status }

// releaseAll unlocks everything in LIFO order.
func (a *Acq) releaseAll() {
	for i := a.nHeld - 1; i >= 0; i-- {
		a.held[i].Release()
		a.held[i] = nil
	}
	a.nHeld = 0
}

// Region is an elidable critical-section descriptor: how many speculative
// attempts to make before falling back to the locks. The paper (§6.4)
// assumes five.
type Region struct {
	// Attempts is the speculation budget; <= 0 disables elision entirely
	// (pure pessimistic locking, the "default implementation" of Table 3).
	Attempts int
}

// Run executes body as an elided critical section on behalf of the worker
// owning th and inj (both may be nil: no stats, no interrupts). It returns
// Committed or ValidateFail; all abort handling and retrying happens
// inside. Locks acquired through the Acq are always released before Run
// returns.
func (r *Region) Run(th *stats.Thread, inj *fault.Injector, body func(*Acq) Status) Status {
	for attempt := 0; attempt < r.Attempts; attempt++ {
		// ValidateFail is not an abort: the operation itself is stale and
		// restarts its parse phase, so it returns without burning budget.
		if st := speculate(th, inj, body); st == Committed || st == ValidateFail {
			return st
		}
	}
	// Fallback: the pessimistic path with the real locks.
	if th != nil && r.Attempts > 0 {
		th.RecordTxFallback()
	}
	a := Acq{spec: false, th: th}
	st := body(&a)
	a.releaseAll()
	if st != Committed && st != ValidateFail {
		panic("htm: pessimistic body aborted; bodies must only abort on failed Acq calls")
	}
	return st
}

// Try executes body as a single one-shot speculative attempt: Lock
// try-acquires, Commit draws the injected interrupt, and any abort
// releases everything and reports false — no retries and no pessimistic
// fallback. It exists for callers that have a *structural* fallback of
// their own (e.g. a batched cache update that reverts to its per-key
// locked loop): Try is the optimistic half of such a batch commit, so
// the usual fallback-to-the-same-locks protocol of Region.Run does not
// apply. Returns whether body committed; a ValidateFail also reports
// false (the caller's fallback re-reads fresh state anyway).
func Try(th *stats.Thread, inj *fault.Injector, body func(*Acq) Status) bool {
	return speculate(th, inj, body) == Committed
}

// speculate runs one speculative attempt of body, releases its locks and
// records its outcome. It returns Committed, ValidateFail, or the abort
// cause. An interrupted attempt is descheduled for the drawn htm.abort
// duration only after releaseAll: the worker is off CPU holding no lock.
func speculate(th *stats.Thread, inj *fault.Injector, body func(*Acq) Status) Status {
	a := Acq{spec: true, th: th, inj: inj}
	if th != nil {
		th.RecordTxAttempt()
	}
	st := body(&a)
	a.releaseAll()
	switch st {
	case Committed, ValidateFail:
		if th != nil {
			th.RecordTxCommit() // the speculation itself succeeded
		}
		return st
	case Conflict, Interrupted, Capacity:
		// body may also return Conflict generically; trust the Acq's own
		// record when it aborted a Lock/Commit call.
		if a.status != Committed {
			st = a.status
		}
		if th != nil {
			th.RecordTxAbort(abortCause(st))
		}
		if st == Interrupted {
			fault.Spin(inj.Duration(fault.HTMAbort))
		}
		return st
	}
	panic("htm: body returned invalid status")
}

func abortCause(s Status) stats.AbortCause {
	switch s {
	case Conflict:
		return stats.AbortConflict
	case Interrupted:
		return stats.AbortInterrupt
	case Capacity:
		return stats.AbortCapacity
	}
	return stats.AbortConflict
}
