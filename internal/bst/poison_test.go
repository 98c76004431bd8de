package bst

import (
	"testing"

	"csds/internal/settest"
)

// The poisoning battery (settest.RunPoison): EBR on, reclaim callbacks
// poisoning and recycling every retired router and leaf, concurrent
// readers asserting no traversal ever observes a poisoned or recycled
// mapping.

func TestTKPoison(t *testing.T) { settest.RunPoison(t, trees["tk"]) }

// TestTKEBR: removes retire through the caller's epoch record, and
// nothing reclaims under its outer bracket (settest.RunRetire).
func TestTKEBR(t *testing.T) { settest.RunRetire(t, trees["tk"]) }

// The internal BST deletes logically and never retires — the battery
// degenerates to a read-consistency check plus a trivially empty drain,
// which is exactly the documented contract.
func TestInternalPoison(t *testing.T) { settest.RunPoison(t, trees["internal"]) }
