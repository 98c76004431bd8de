package list

import (
	"testing"

	"csds/internal/settest"
)

// The poisoning battery (settest.RunPoison): EBR on, reclaim callbacks
// poisoning and recycling every retired node, concurrent readers
// asserting no traversal ever observes a poisoned or recycled mapping,
// churners nesting the structures' epoch brackets inside their own.

func TestLazyPoison(t *testing.T)         { settest.RunPoison(t, lists["lazy"]) }
func TestLockCouplingPoison(t *testing.T) { settest.RunPoison(t, lists["lockcoupling"]) }
func TestPughPoison(t *testing.T)         { settest.RunPoison(t, lists["pugh"]) }
func TestCOWPoison(t *testing.T)          { settest.RunPoison(t, lists["cow"]) }
func TestHarrisPoison(t *testing.T)       { settest.RunPoison(t, lists["harris"]) }

// The wait-free list retires with a nil callback (no pool; see pool.go)
// — the battery still verifies its brackets and that the domain drains
// fully.
func TestWaitFreePoison(t *testing.T) { settest.RunPoison(t, lists["waitfree"]) }

// The retirement check (settest.RunRetire): removes retire through the
// caller's epoch record, and nothing reclaims under its outer bracket.

func TestLazyEBR(t *testing.T)   { settest.RunRetire(t, lists["lazy"]) }
func TestHarrisEBR(t *testing.T) { settest.RunRetire(t, lists["harris"]) }
