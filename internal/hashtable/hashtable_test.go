package hashtable

import (
	"testing"

	"csds/internal/core"
	"csds/internal/settest"
)

// tables is the package's conformance roster, by registry short name.
var tables = map[string]settest.Factory{
	"lazy":         func(o core.Options) core.Set { return NewLazy(o) },
	"cow":          func(o core.Options) core.Set { return NewCOW(o) },
	"striped":      func(o core.Options) core.Set { return NewStriped(o) },
	"lockcoupling": registered("hashtable/lockcoupling"),
	"pugh":         registered("hashtable/pugh"),
	"harris":       registered("hashtable/harris"),
	"waitfree":     registered("hashtable/waitfree"),
}

// registered builds the named algorithm through the registry, looked up
// per call: the bucketed variants register in this package's init, which
// runs after the roster is initialized.
func registered(name string) settest.Factory {
	return func(o core.Options) core.Set {
		info, _ := core.Lookup(name)
		return info.New(o)
	}
}

// smallTable is hashtable/lazy with 2 buckets: heavy chain sharing
// exercises the sorted-splice paths and puts scans and cursor pages on
// long shared buckets under churn.
func smallTable(o core.Options) core.Set {
	o.Buckets = 2
	return NewLazy(o)
}

func TestLazy(t *testing.T)                 { settest.Run(t, tables["lazy"]) }
func TestLazyElided(t *testing.T)           { settest.RunElided(t, tables["lazy"]) }
func TestLazySmallTable(t *testing.T)       { settest.Run(t, smallTable) }
func TestCOW(t *testing.T)                  { settest.Run(t, tables["cow"]) }
func TestStriped(t *testing.T)              { settest.Run(t, tables["striped"]) }
func TestBucketedLockCoupling(t *testing.T) { settest.Run(t, tables["lockcoupling"]) }
func TestBucketedPugh(t *testing.T)         { settest.Run(t, tables["pugh"]) }
func TestBucketedHarris(t *testing.T)       { settest.Run(t, tables["harris"]) }
func TestBucketedWaitFree(t *testing.T)     { settest.Run(t, tables["waitfree"]) }

// TestScanners runs the linearizable range-scan battery on every table.
// Since the ordered key index, hash-table scans are ascending like every
// other structure's.
func TestScanners(t *testing.T) {
	for name, f := range tables {
		t.Run(name, func(t *testing.T) { settest.RunScanner(t, f) })
	}
}

func TestLazyScannerSmallTable(t *testing.T) { settest.RunScanner(t, smallTable) }

// TestCursors runs the paginated-iteration battery on every table.
// Cursor pages are ascending by key even here — key order is the only
// resumable order a churning hash table can offer.
func TestCursors(t *testing.T) {
	for name, f := range tables {
		t.Run(name, func(t *testing.T) { settest.RunCursor(t, f) })
	}
}

func TestLazyCursorSmallTable(t *testing.T) { settest.RunCursor(t, smallTable) }

// TestBatchers runs the batched-operation battery on every table
// (unsorted point application — hash routing destroys key order, so the
// loop is the optimal plan and amortization comes from the combinator
// layer above).
func TestBatchers(t *testing.T) {
	for name, f := range tables {
		t.Run(name, func(t *testing.T) { settest.RunBatcher(t, f) })
	}
}

// TestCursorPageCost: every table's full paginated iteration must
// materialize O(pages·page) keys (counter-verified), not the
// O(pages·table) the pre-index collect-and-sort paid — the ordered key
// index is what this pins.
func TestCursorPageCost(t *testing.T) {
	for name, f := range tables {
		t.Run(name, func(t *testing.T) { settest.RunCursorPageCost(t, f) })
	}
}

func TestBucketCount(t *testing.T) {
	cases := []struct {
		o    core.Options
		want int
	}{
		{core.Options{}, defaultBuckets},
		{core.Options{Buckets: 8}, 8},
		{core.Options{Buckets: 9}, 16},
		{core.Options{ExpectedSize: 1000}, 1024},
		{core.Options{Buckets: 1}, 2},
	}
	for _, tc := range cases {
		if got := bucketCount(tc.o); got != tc.want {
			t.Errorf("bucketCount(%+v) = %d, want %d", tc.o, got, tc.want)
		}
	}
}

func TestHashSpreads(t *testing.T) {
	// Sequential keys must not collapse into few buckets.
	const mask = 1023
	counts := make(map[uint64]int)
	for k := core.Key(0); k < 4096; k++ {
		counts[hash(k, mask)]++
	}
	if len(counts) < 900 {
		t.Fatalf("hash used only %d of 1024 buckets for sequential keys", len(counts))
	}
}

func TestFeaturedIsLazy(t *testing.T) {
	info, ok := core.Featured("hashtable")
	if !ok || info.Name != "hashtable/lazy" {
		t.Fatalf("featured hashtable = %+v", info)
	}
}

func TestLazyNoRestartsEver(t *testing.T) {
	// §5.1: the per-bucket-lock hash table never restarts.
	s := NewLazy(core.Options{Buckets: 4})
	c := core.NewCtx(0)
	for i := 0; i < 1000; i++ {
		s.Put(c, core.Key(i), core.Value(i))
		s.Remove(c, core.Key(i/2))
	}
	if c.Stats.Restarts != 0 {
		t.Fatalf("lazy hash recorded %d restarts; per-bucket locking must never restart", c.Stats.Restarts)
	}
}
