package skiplist

import (
	"testing"

	"csds/internal/settest"
)

// The poisoning battery (settest.RunPoison): EBR on, reclaim callbacks
// poisoning and recycling every retired tower, concurrent readers
// asserting no traversal ever observes a poisoned or recycled mapping.

func TestHerlihyPoison(t *testing.T) { settest.RunPoison(t, skiplists["herlihy"]) }
func TestPughPoison(t *testing.T)    { settest.RunPoison(t, skiplists["pugh"]) }

// The lock-free skip list retires with a nil callback (no pool; see
// pool.go) — the battery still verifies its brackets and that the domain
// drains fully.
func TestLockFreePoison(t *testing.T) { settest.RunPoison(t, skiplists["lockfree"]) }

// The retirement check (settest.RunRetire): removes retire through the
// caller's epoch record, and nothing reclaims under its outer bracket.

func TestHerlihyEBR(t *testing.T)  { settest.RunRetire(t, skiplists["herlihy"]) }
func TestLockFreeEBR(t *testing.T) { settest.RunRetire(t, skiplists["lockfree"]) }
