package skiplist

import (
	"testing"

	"csds/internal/core"
	"csds/internal/settest"
)

// The chaos battery (settest.RunChaos): seeded fault injection under the
// full invariant set — see internal/settest/chaostest.go.

func TestHerlihyChaos(t *testing.T) { settest.RunChaos(t, skiplists["herlihy"]) }

// TestHerlihyChaosElided: the battery with lock elision on, so htm.abort
// drives the abort → retry → fallback path (see list.TestLazyChaosElided).
func TestHerlihyChaosElided(t *testing.T) {
	settest.RunChaos(t, func(o core.Options) core.Set {
		o.ElideAttempts = 5
		return NewHerlihy(o)
	})
}

func TestPughChaos(t *testing.T)     { settest.RunChaos(t, skiplists["pugh"]) }
func TestLockFreeChaos(t *testing.T) { settest.RunChaos(t, skiplists["lockfree"]) }
