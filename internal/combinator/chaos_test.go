package combinator

import (
	"testing"

	"csds/internal/settest"
)

// The chaos battery across the combinators (settest.RunChaos): injected
// stalls, forced guard failures, and the EBR antagonist run against the
// composite protocols — cross-shard merges, striped ranges, readcache's
// version-guarded fills, and elastic's COW shard maps — under the full
// invariant set. See internal/settest/chaostest.go.

func TestCombinatorsChaos(t *testing.T) {
	runSpecs(t, settest.RunChaos,
		"sharded(4,list/lazy)",
		"striped(4,bst/tk)",
		"readcache(8,hashtable/lazy)",
		"elastic(2,skiplist/herlihy)",
	)
}
