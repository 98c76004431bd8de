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

func TestLazyChaos(t *testing.T) {
	settest.RunChaos(t, func(o core.Options) core.Set { return NewLazy(o) })
}

// TestLazyChaosElided: the battery with lock elision on, so htm.abort
// drives the abort → retry → fallback path (see list.TestLazyChaosElided).
func TestLazyChaosElided(t *testing.T) {
	settest.RunChaos(t, func(o core.Options) core.Set {
		o.ElideAttempts = 5
		return NewLazy(o)
	})
}

func TestLazySmallTableChaos(t *testing.T) {
	settest.RunChaos(t, func(o core.Options) core.Set {
		o.Buckets = 2
		return NewLazy(o)
	})
}

func TestCOWChaos(t *testing.T) {
	settest.RunChaos(t, func(o core.Options) core.Set { return NewCOW(o) })
}

func TestStripedChaos(t *testing.T) {
	settest.RunChaos(t, func(o core.Options) core.Set { return NewStriped(o) })
}

func TestBucketedChaos(t *testing.T) {
	for _, name := range []string{
		"hashtable/lockcoupling", "hashtable/pugh", "hashtable/harris", "hashtable/waitfree",
	} {
		info, ok := core.Lookup(name)
		if !ok {
			t.Fatalf("registry is missing %s", name)
		}
		t.Run(name, func(t *testing.T) { settest.RunChaos(t, info.New) })
	}
}
