package bst

import (
	"testing"

	"csds/internal/core"
	"csds/internal/settest"
)

// The chaos battery (settest.RunChaos): seeded fault injection under the
// full invariant set — see internal/settest/chaostest.go.

func TestTKChaos(t *testing.T) { settest.RunChaos(t, trees["tk"]) }

// TestTKChaosElided: the battery with lock elision on, so htm.abort
// drives the abort → retry → fallback path (see list.TestLazyChaosElided).
func TestTKChaosElided(t *testing.T) {
	settest.RunChaos(t, func(o core.Options) core.Set {
		o.ElideAttempts = 5
		return NewTK(o)
	})
}

func TestInternalChaos(t *testing.T) { settest.RunChaos(t, trees["internal"]) }
