package hashtable

import (
	"testing"

	"csds/internal/core"
	"csds/internal/settest"
)

// The chaos battery (settest.RunChaos): seeded fault injection under the
// full invariant set — see internal/settest/chaostest.go. The 2-bucket
// variant maximizes chain sharing so forced guard failures and delayed
// reclaims land on chains readers are actually traversing.

func TestLazyChaos(t *testing.T) { settest.RunChaos(t, tables["lazy"]) }

// TestLazyChaosElided: the battery with lock elision on, so htm.abort
// drives the abort → retry → fallback path (see list.TestLazyChaosElided).
func TestLazyChaosElided(t *testing.T) {
	settest.RunChaos(t, func(o core.Options) core.Set {
		o.ElideAttempts = 5
		return NewLazy(o)
	})
}

func TestLazySmallTableChaos(t *testing.T) { settest.RunChaos(t, smallTable) }
func TestCOWChaos(t *testing.T)            { settest.RunChaos(t, tables["cow"]) }
func TestStripedChaos(t *testing.T)        { settest.RunChaos(t, tables["striped"]) }

func TestBucketedChaos(t *testing.T) {
	for _, name := range []string{"lockcoupling", "pugh", "harris", "waitfree"} {
		t.Run("hashtable/"+name, func(t *testing.T) { settest.RunChaos(t, tables[name]) })
	}
}
