package htm

import (
	"sync"
	"testing"
	"testing/quick"

	"csds/internal/fault"
	"csds/internal/locks"
	"csds/internal/stats"
)

// interruptEvery is an htm.abort schedule firing on every n-th commit
// draw; n == 0 means no interrupts (a nil plan).
func interruptEvery(n uint8) *fault.Plan {
	if n == 0 {
		return nil
	}
	return fault.NewPlan(1).Set(fault.HTMAbort, fault.Rule{Every: uint64(n)})
}

// TestElisionExactnessProperty: for arbitrary worker/iteration/attempt
// mixes with injected interrupts (htm.abort on every armEvery-th commit),
// mutual exclusion and lock hygiene must hold: the protected counter is
// exact and no lock is left held.
func TestElisionExactnessProperty(t *testing.T) {
	prop := func(workersRaw, itersRaw, attemptsRaw uint8, armEvery uint8) bool {
		plan := interruptEvery(armEvery)
		workers := 1 + int(workersRaw)%6
		iters := 50 + int(itersRaw)%400
		attempts := int(attemptsRaw) % 7
		var l1, l2 locks.TAS
		var counter int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var th stats.Thread
				inj := fault.NewInjector(plan, uint64(w), nil)
				r := Region{Attempts: attempts}
				for i := 0; i < iters; i++ {
					r.Run(&th, inj, func(a *Acq) Status {
						if !a.Lock(&l1) || !a.Lock(&l2) {
							return a.AbortStatus()
						}
						if !a.Commit() {
							return a.AbortStatus()
						}
						counter++
						return Committed
					})
				}
			}(w)
		}
		wg.Wait()
		return counter == int64(workers*iters) && !l1.Held() && !l2.Held()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAccountingIdentityProperty: commits + fallbacks equals the number
// of critical sections executed, and attempts >= commits.
func TestAccountingIdentityProperty(t *testing.T) {
	prop := func(itersRaw, attemptsRaw, armEvery uint8) bool {
		iters := 1 + int(itersRaw)%500
		attempts := 1 + int(attemptsRaw)%6
		var l locks.TAS
		var th stats.Thread
		inj := fault.NewInjector(interruptEvery(armEvery), 0, nil)
		r := Region{Attempts: attempts}
		for i := 0; i < iters; i++ {
			r.Run(&th, inj, func(a *Acq) Status {
				if !a.Lock(&l) {
					return a.AbortStatus()
				}
				if !a.Commit() {
					return a.AbortStatus()
				}
				return Committed
			})
		}
		if th.TxCommits+th.TxFallbacks != uint64(iters) {
			return false
		}
		if th.TxAttempts < th.TxCommits {
			return false
		}
		var aborts uint64
		for _, a := range th.TxAborts {
			aborts += a
		}
		// Every attempt either commits or aborts.
		return th.TxAttempts == th.TxCommits+aborts
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
