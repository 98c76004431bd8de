package combinator

import (
	"testing"

	"csds/internal/settest"
)

// The poisoning battery across the combinators (settest.RunPoison):
// nodes recycled by one shard's churn may be handed to another shard —
// or, after an elastic teardown sweep, to a replacement instance — so
// the composite batteries prove the package-level pools and the eager
// resize reclamation never leak a live mapping.

func TestCombinatorsPoison(t *testing.T) {
	runSpecs(t, settest.RunPoison,
		"sharded(4,list/lazy)",
		"sharded(4,skiplist/herlihy)",
		"striped(4,list/lazy)",
		"striped(4,bst/tk)",
		"readcache(8,list/lazy)",
		"readcache(8,hashtable/lazy)",
	)
}

// TestCompositeEBR checks epoch-based reclamation threads through the
// wrappers (settest.RunRetire): the caller's epoch record reaches every
// inner instance, and the inner structures' brackets nest inside the
// caller's.
func TestCompositeEBR(t *testing.T) {
	runSpecs(t, settest.RunRetire, "sharded(4,list/lazy)", "readcache(64,list/lazy)")
}

// TestElasticPoison runs the battery under continuous resize: every
// published width change eagerly retires a whole shard map whose nodes
// are swept into the pools by ReclaimAll — while stragglers may still
// be traversing them inside their brackets.
func TestElasticPoison(t *testing.T) {
	runSpecs(t, settest.RunPoison,
		"elastic(2,list/lazy)",
		"elastic(2,hashtable/lazy)",
		"elastic(2,bst/tk)",
		"elastic(2,skiplist/herlihy)",
	)
}
