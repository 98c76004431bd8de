package htm

import (
	"sync"
	"testing"
	"time"

	"csds/internal/fault"
	"csds/internal/locks"
	"csds/internal/stats"
)

func TestCommitFirstAttempt(t *testing.T) {
	var l locks.TAS
	var th stats.Thread
	r := Region{Attempts: 5}
	ran := 0
	st := r.Run(&th, nil, func(a *Acq) Status {
		ran++
		if !a.Lock(&l) {
			return Conflict
		}
		if !a.Commit() {
			return Interrupted
		}
		return Committed
	})
	if st != Committed || ran != 1 {
		t.Fatalf("st=%v ran=%d", st, ran)
	}
	if th.TxCommits != 1 || th.TxAttempts != 1 || th.TxFallbacks != 0 {
		t.Fatalf("stats wrong: %+v", th)
	}
	if l.Held() {
		t.Fatal("lock not released after commit")
	}
}

func TestConflictThenFallback(t *testing.T) {
	// Hold the node lock from outside for the whole test: every speculation
	// conflicts, then the fallback blocks; release from another goroutine.
	var l locks.TAS
	l.Acquire(nil)
	var th stats.Thread
	r := Region{Attempts: 3}

	done := make(chan Status, 1)
	entered := make(chan struct{})
	var once sync.Once
	go func() {
		st := r.Run(&th, nil, func(a *Acq) Status {
			if !a.Speculative() {
				once.Do(func() { close(entered) })
			}
			if !a.Lock(&l) {
				return Conflict
			}
			return Committed
		})
		done <- st
	}()
	<-entered // fallback path reached => 3 conflicts recorded
	l.Release()
	if st := <-done; st != Committed {
		t.Fatalf("fallback status = %v", st)
	}
	if th.TxAborts[stats.AbortConflict] != 3 {
		t.Fatalf("conflict aborts = %d, want 3", th.TxAborts[stats.AbortConflict])
	}
	if th.TxFallbacks != 1 || th.TxCommits != 0 {
		t.Fatalf("fallback accounting wrong: %+v", th)
	}
	if l.Held() {
		t.Fatal("lock not released after fallback commit")
	}
}

// abortPlan builds worker 0's injector for an htm.abort schedule.
func abortPlan(t *testing.T, spec string) (*fault.Injector, *fault.Tally) {
	t.Helper()
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	tally := fault.NewTally()
	return fault.NewInjector(plan, 0, tally), tally
}

// spyLock timestamps every speculative acquisition and every release.
type spyLock struct {
	locks.TAS
	acquired, released []time.Time
}

func (l *spyLock) TryAcquire(th *stats.Thread) bool {
	ok := l.TAS.TryAcquire(th)
	if ok {
		l.acquired = append(l.acquired, time.Now())
	}
	return ok
}

func (l *spyLock) Release() {
	l.released = append(l.released, time.Now())
	l.TAS.Release()
}

// writeOnce is a one-lock body that counts the writes it performs after
// a successful Commit.
func writeOnce(l NodeLock, wrote *int) func(*Acq) Status {
	return func(a *Acq) Status {
		if !a.Lock(l) {
			return a.AbortStatus()
		}
		if !a.Commit() {
			return a.AbortStatus()
		}
		*wrote++
		return Committed
	}
}

func TestInterruptAborts(t *testing.T) {
	// htm.abort:every=2 fires on the second commit draw: the first
	// section commits, the second section's first attempt is interrupted
	// and its second attempt commits.
	inj, tally := abortPlan(t, "htm.abort:every=2")
	var l locks.TAS
	var th stats.Thread
	r := Region{Attempts: 2}
	wrote := 0
	for i := 0; i < 2; i++ {
		if st := r.Run(&th, inj, writeOnce(&l, &wrote)); st != Committed {
			t.Fatalf("section %d: status = %v", i, st)
		}
	}
	if wrote != 2 {
		t.Fatalf("wrote %d times over two sections, want 2 (the interrupted attempt must not write)", wrote)
	}
	if th.TxAborts[stats.AbortInterrupt] != 1 || tally.Count(fault.HTMAbort) != 1 {
		t.Fatalf("interrupt aborts = %d, htm.abort fires = %d; want 1 and 1",
			th.TxAborts[stats.AbortInterrupt], tally.Count(fault.HTMAbort))
	}
	if th.TxAttempts != 3 || th.TxCommits != 2 || th.TxFallbacks != 0 {
		t.Fatalf("tx accounting wrong: %+v", th)
	}
	if l.Held() {
		t.Fatal("lock leaked by interrupted speculation")
	}
}

func TestInterruptAtCommitPoint(t *testing.T) {
	// The interrupt lands after the locks are taken, at the commit point:
	// the attempt releases before the drawn 200µs deschedule, so the
	// worker is off CPU holding no lock, and the retry re-acquires after.
	inj, _ := abortPlan(t, "htm.abort:every=2,min=200us,max=200us")
	var l spyLock
	var th stats.Thread
	r := Region{Attempts: 2}
	wrote := 0
	r.Run(&th, inj, writeOnce(&l, &wrote)) // draw 1: commits
	if st := r.Run(&th, inj, writeOnce(&l, &wrote)); st != Committed || wrote != 2 {
		t.Fatalf("st=%v wrote=%d (writes must not happen in the aborted attempt)", st, wrote)
	}
	if th.TxAborts[stats.AbortInterrupt] != 1 {
		t.Fatalf("interrupt abort not recorded: %+v", th)
	}
	if len(l.acquired) != 3 || len(l.released) != 3 {
		t.Fatalf("acquired %d / released %d times, want 3 / 3", len(l.acquired), len(l.released))
	}
	if off := l.acquired[2].Sub(l.released[1]); off < 200*time.Microsecond {
		t.Fatalf("retry re-acquired %v after the interrupted release; the 200µs deschedule must run with no lock held", off)
	}
}

func TestElidedModeAbortsInsteadOfCSStall(t *testing.T) {
	// Under the multiprogramming plan an elided section is switched out by
	// htm.abort, never by cs.delay: the region draws no in-critical-section
	// stall, and the 50µs deschedule runs between the speculative attempt's
	// release and the fallback's.
	inj, tally := abortPlan(t, "htm.abort:every=1,min=50us,max=50us;cs.delay:every=1,min=50us,max=50us")
	var l spyLock
	var th stats.Thread
	r := Region{Attempts: 1}
	wrote := 0
	if st := r.Run(&th, inj, writeOnce(&l, &wrote)); st != Committed || wrote != 1 {
		t.Fatalf("st=%v wrote=%d", st, wrote)
	}
	if tally.Count(fault.HTMAbort) != 1 || tally.Count(fault.CSDelay) != 0 {
		t.Fatalf("htm.abort fired %d, cs.delay fired %d; want 1 and 0",
			tally.Count(fault.HTMAbort), tally.Count(fault.CSDelay))
	}
	if th.TxAborts[stats.AbortInterrupt] != 1 || th.TxFallbacks != 1 {
		t.Fatalf("want 1 interrupt abort then 1 fallback: %+v", th)
	}
	if len(l.released) != 2 {
		t.Fatalf("released %d times, want 2 (speculation, fallback)", len(l.released))
	}
	if off := l.released[1].Sub(l.released[0]); off < 50*time.Microsecond {
		t.Fatalf("fallback released %v after the interrupted attempt; the 50µs deschedule must run in between", off)
	}
	if l.Held() {
		t.Fatal("lock leaked")
	}
}

func TestInterruptEveryAttemptFallsBack(t *testing.T) {
	// every=1 interrupts every speculative attempt: the budget runs out
	// and the section completes on the pessimistic path, which never
	// draws (a real lock holder finishes its writes).
	inj, tally := abortPlan(t, "htm.abort:every=1")
	var l locks.TAS
	var th stats.Thread
	r := Region{Attempts: 2}
	wrote := 0
	if st := r.Run(&th, inj, writeOnce(&l, &wrote)); st != Committed || wrote != 1 {
		t.Fatalf("st=%v wrote=%d", st, wrote)
	}
	if th.TxAborts[stats.AbortInterrupt] != 2 || th.TxFallbacks != 1 || tally.Count(fault.HTMAbort) != 2 {
		t.Fatalf("want 2 interrupt aborts, 2 fires and 1 fallback: %+v, fires %d", th, tally.Count(fault.HTMAbort))
	}
	if l.Held() {
		t.Fatal("lock leaked by the fallback")
	}
}

func TestTryInterrupted(t *testing.T) {
	// Try is one speculative attempt: an interrupt reports false with
	// nothing written and nothing held, for the caller's own fallback.
	inj, _ := abortPlan(t, "htm.abort:every=1")
	var l locks.TAS
	var th stats.Thread
	wrote := 0
	if Try(&th, inj, writeOnce(&l, &wrote)) || wrote != 0 {
		t.Fatalf("interrupted Try committed (wrote %d)", wrote)
	}
	if th.TxAborts[stats.AbortInterrupt] != 1 || l.Held() {
		t.Fatalf("interrupted Try: %+v, lock held %v", th, l.Held())
	}
	if !Try(&th, nil, writeOnce(&l, &wrote)) || wrote != 1 {
		t.Fatalf("uninterrupted Try did not commit (wrote %d)", wrote)
	}
}

func TestValidateFailReturnsImmediately(t *testing.T) {
	var th stats.Thread
	r := Region{Attempts: 5}
	ran := 0
	st := r.Run(&th, nil, func(a *Acq) Status {
		ran++
		return ValidateFail
	})
	if st != ValidateFail || ran != 1 {
		t.Fatalf("st=%v ran=%d", st, ran)
	}
	if th.TxFallbacks != 0 {
		t.Fatal("validation failure must not count as fallback")
	}
}

func TestZeroAttemptsIsPessimistic(t *testing.T) {
	var l locks.TAS
	var th stats.Thread
	r := Region{Attempts: 0}
	st := r.Run(&th, nil, func(a *Acq) Status {
		if a.Speculative() {
			t.Error("Attempts=0 ran a speculative attempt")
		}
		if !a.Lock(&l) {
			return Conflict
		}
		return Committed
	})
	if st != Committed {
		t.Fatalf("st=%v", st)
	}
	if th.TxAttempts != 0 || th.TxFallbacks != 0 {
		t.Fatalf("Attempts=0 must not record tx stats: %+v", th)
	}
}

func TestCapacityAbort(t *testing.T) {
	var th stats.Thread
	ls := make([]locks.TAS, maxHeld+1)
	r := Region{Attempts: 1}
	st := r.Run(&th, nil, func(a *Acq) Status {
		// Speculatively try to take maxHeld+1 locks, triggering the
		// capacity abort; the pessimistic fallback takes just one (a real
		// body would be written to fit, this shape only exercises the
		// accounting).
		n := len(ls)
		if !a.Speculative() {
			n = 1
		}
		for i := 0; i < n; i++ {
			if !a.Lock(&ls[i]) {
				return a.AbortStatus()
			}
		}
		return Committed
	})
	if st != Committed {
		t.Fatalf("st=%v", st)
	}
	if th.TxAborts[stats.AbortCapacity] != 1 {
		t.Fatalf("capacity abort not recorded: %+v", th)
	}
	for i := range ls {
		if ls[i].Held() {
			t.Fatalf("lock %d leaked", i)
		}
	}
}

func TestMutualExclusionUnderElision(t *testing.T) {
	// Speculative and pessimistic critical sections must still be mutually
	// exclusive: increment a plain counter under a single node lock from
	// many goroutines with a tiny attempt budget to force frequent
	// fallbacks.
	var l locks.TAS
	var counter int64
	const workers = 8
	const iters = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var th stats.Thread
			r := Region{Attempts: 2}
			for i := 0; i < iters; i++ {
				r.Run(&th, nil, func(a *Acq) Status {
					if !a.Lock(&l) {
						return Conflict
					}
					if !a.Commit() {
						return Interrupted
					}
					counter++
					return Committed
				})
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("exclusion violated: %d != %d", counter, workers*iters)
	}
}

func TestFallbackBlocksSpeculators(t *testing.T) {
	// While a pessimistic holder owns the node lock, speculations must
	// abort with Conflict (the lock-subscription property).
	var l locks.TAS
	l.Acquire(nil)
	var th stats.Thread
	r := Region{Attempts: 1}
	aborted := false
	go func() {}()
	// Single speculative attempt, then fallback would block — so run only
	// the speculative part by releasing in another goroutine after a beat.
	release := make(chan struct{})
	go func() { <-release; l.Release() }()
	st := r.Run(&th, nil, func(a *Acq) Status {
		if a.Speculative() {
			if !a.Lock(&l) {
				aborted = true
				return Conflict
			}
			return Committed
		}
		close(release)
		if !a.Lock(&l) {
			return Conflict
		}
		return Committed
	})
	if !aborted {
		t.Fatal("speculation did not abort while fallback lock held")
	}
	if st != Committed {
		t.Fatalf("st=%v", st)
	}
}

func TestMultiLockOrderAndRelease(t *testing.T) {
	var l1, l2, l3 locks.Ticket
	var th stats.Thread
	r := Region{Attempts: 1}
	st := r.Run(&th, nil, func(a *Acq) Status {
		if !a.Lock(&l1) || !a.Lock(&l2) || !a.Lock(&l3) {
			return Conflict
		}
		if !l1.Held() || !l2.Held() || !l3.Held() {
			t.Error("locks not held inside critical section")
		}
		return Committed
	})
	if st != Committed {
		t.Fatalf("st=%v", st)
	}
	if l1.Held() || l2.Held() || l3.Held() {
		t.Fatal("locks leaked")
	}
}

func TestPartialConflictReleasesPrefix(t *testing.T) {
	// l2 is held externally: the speculation acquires l1, fails l2, and
	// must release l1 on abort.
	var l1, l2 locks.TAS
	l2.Acquire(nil)
	var th stats.Thread
	r := Region{Attempts: 1}
	done := make(chan struct{})
	go func() {
		defer close(done)
		specDone := false
		r.Run(&th, nil, func(a *Acq) Status {
			if a.Speculative() {
				if !a.Lock(&l1) {
					return Conflict
				}
				if !a.Lock(&l2) {
					specDone = true
					return Conflict
				}
				return Committed
			}
			if !specDone {
				t.Error("fallback before speculation conflict")
			}
			// Pessimistic path: check l1 was released by the abort before
			// we re-acquire (we are the only other user of l1).
			if l1.Held() {
				t.Error("l1 leaked by aborted speculation")
			}
			if !a.Lock(&l1) {
				return Conflict
			}
			return Committed
		})
	}()
	// Fallback on l2 blocks until we release it... but the pessimistic body
	// above only locks l1, so no deadlock; just wait.
	<-done
	l2.Release()
	if th.TxAborts[stats.AbortConflict] != 1 {
		t.Fatalf("conflict abort not recorded: %+v", th)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		Committed: "committed", ValidateFail: "validate-fail",
		Conflict: "conflict", Interrupted: "interrupted",
		Capacity: "capacity", Status(42): "unknown",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestBadStatusPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid body status did not panic")
		}
	}()
	r := Region{Attempts: 1}
	r.Run(nil, nil, func(a *Acq) Status { return Status(42) })
}

func BenchmarkElidedUncontended(b *testing.B) {
	var l locks.TAS
	r := Region{Attempts: 5}
	for i := 0; i < b.N; i++ {
		r.Run(nil, nil, func(a *Acq) Status {
			if !a.Lock(&l) {
				return Conflict
			}
			return Committed
		})
	}
}
