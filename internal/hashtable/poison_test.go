package hashtable

import (
	"testing"

	"csds/internal/settest"
)

// The poisoning battery (settest.RunPoison): EBR on, reclaim callbacks
// poisoning and recycling every retired bucket-chain node, concurrent
// readers asserting no traversal (bucket scan, indexed range scan, or
// cursor page) ever observes a poisoned or recycled mapping. On the
// 2-bucket table long chains recycle under readers mid-traversal.

func TestLazyPoison(t *testing.T)                 { settest.RunPoison(t, tables["lazy"]) }
func TestLazySmallTablePoison(t *testing.T)       { settest.RunPoison(t, smallTable) }
func TestCOWPoison(t *testing.T)                  { settest.RunPoison(t, tables["cow"]) }
func TestStripedPoison(t *testing.T)              { settest.RunPoison(t, tables["striped"]) }
func TestBucketedLockCouplingPoison(t *testing.T) { settest.RunPoison(t, tables["lockcoupling"]) }
func TestBucketedPughPoison(t *testing.T)         { settest.RunPoison(t, tables["pugh"]) }
func TestBucketedHarrisPoison(t *testing.T)       { settest.RunPoison(t, tables["harris"]) }
func TestBucketedWaitFreePoison(t *testing.T)     { settest.RunPoison(t, tables["waitfree"]) }

// TestLazyEBR: removes retire through the caller's epoch record, and
// nothing reclaims under its outer bracket (settest.RunRetire).
func TestLazyEBR(t *testing.T) { settest.RunRetire(t, tables["lazy"]) }
