package list

import (
	"testing"

	"csds/internal/core"
	"csds/internal/settest"
)

// The chaos battery (settest.RunChaos): a seeded fault schedule — stalls
// between and inside critical sections, forced guard-validation failures,
// delayed retire callbacks, and an EBR antagonist stalling/abandoning
// records — under the full invariant set: linearizability ledger, the
// poison equation, and a drain ending at reclaimed == retired. On a list
// that speculates the battery adds its own Elided leg.

func TestLazyChaos(t *testing.T) { settest.RunChaos(t, lists["lazy"]) }

// TestLazyChaosElided runs the battery with lock elision on, so the
// chaos plan's htm.abort drives the abort → retry → pessimistic-fallback
// path under the same ledger, poison and drain invariants.
func TestLazyChaosElided(t *testing.T) {
	settest.RunChaos(t, func(o core.Options) core.Set {
		o.ElideAttempts = 5
		return NewLazy(o)
	})
}

func TestLockCouplingChaos(t *testing.T) { settest.RunChaos(t, lists["lockcoupling"]) }
func TestPughChaos(t *testing.T)         { settest.RunChaos(t, lists["pugh"]) }
func TestCOWChaos(t *testing.T)          { settest.RunChaos(t, lists["cow"]) }
func TestHarrisChaos(t *testing.T)       { settest.RunChaos(t, lists["harris"]) }
func TestWaitFreeChaos(t *testing.T)     { settest.RunChaos(t, lists["waitfree"]) }
