// Tests for the conformance suite itself: the battery must pass on a
// trivially correct reference implementation (a mutex-guarded map), drive
// composite specs through the layered factory, and exercise the
// concurrent-resize harness against a well-behaved Resizable.
package settest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"csds/internal/core"

	// Populate the registries: the composite-spec tests and the
	// registry-wide capability test.
	_ "csds/internal/bst"
	_ "csds/internal/combinator"
	_ "csds/internal/hashtable"
	_ "csds/internal/list"
	_ "csds/internal/skiplist"
)

// refSet is the obviously linearizable reference: one mutex, one map.
type refSet struct {
	mu sync.Mutex
	m  map[core.Key]core.Value
}

func newRefSet(core.Options) core.Set {
	return &refSet{m: map[core.Key]core.Value{}}
}

func (r *refSet) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.m[k]
	return v, ok
}

func (r *refSet) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[k]; ok {
		return false
	}
	r.m[k] = v
	return true
}

func (r *refSet) Remove(c *core.Ctx, k core.Key) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[k]; !ok {
		return false
	}
	delete(r.m, k)
	return true
}

func (r *refSet) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// Scan implements core.Scanner the obviously correct way: collect the
// range under the mutex (one true atomic snapshot), release, replay in
// key order.
func (r *refSet) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	r.mu.Lock()
	var buf []core.ScanPair
	for k, v := range r.m {
		if k >= lo && k < hi {
			buf = append(buf, core.ScanPair{K: k, V: v})
		}
	}
	r.mu.Unlock()
	core.SortScanPairs(buf)
	return core.ReplayScan(buf, f)
}

// CursorNext implements core.Cursor the obviously correct way: collect
// the in-range tail under the mutex, sort, deliver the first max.
func (r *refSet) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	if pos >= hi {
		return hi, true
	}
	r.mu.Lock()
	var buf []core.ScanPair
	for k, v := range r.m {
		if k >= pos && k < hi {
			buf = append(buf, core.ScanPair{K: k, V: v})
		}
	}
	r.mu.Unlock()
	return core.MergePage(buf, true, hi, max, f)
}

// The reference Batcher is the obviously correct one: each element is a
// point op under the mutex, applied in index order.
func (r *refSet) MultiGet(c *core.Ctx, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	core.LoopMultiGet(c, r, keys, f)
}

func (r *refSet) MultiPut(c *core.Ctx, pairs []core.KV, f func(i int, inserted bool)) {
	core.LoopMultiPut(c, r, pairs, f)
}

func (r *refSet) MultiRemove(c *core.Ctx, keys []core.Key, f func(i int, removed bool)) {
	core.LoopMultiRemove(c, r, keys, f)
}

// refResizable adds a no-op repartition (the map is its own single
// shard); it verifies the resize driver itself — width cycling, final
// checks — against an implementation that cannot fail.
type refResizable struct {
	*refSet
	width atomic.Int64
}

func newRefResizable(o core.Options) core.Set {
	rr := &refResizable{refSet: newRefSet(o).(*refSet)}
	rr.width.Store(1)
	return rr
}

func (r *refResizable) Resize(c *core.Ctx, n int) error {
	if n < 1 {
		n = 1
	}
	r.width.Store(int64(n))
	return nil
}

func (r *refResizable) Width() int { return int(r.width.Load()) }

// spec resolves an algorithm specification through the layered core
// factory.
func spec(t *testing.T, s string) Factory {
	t.Helper()
	f, err := core.NewFactory(s)
	if err != nil {
		t.Fatalf("resolving %s: %v", s, err)
	}
	return f
}

// TestBatteryOnReferenceSet: the full battery accepts a correct set.
func TestBatteryOnReferenceSet(t *testing.T) {
	Run(t, newRefSet)
}

// TestEBROnReferenceSet: the EBR (poison) battery tolerates structures
// that never retire: retired and reclaimed both stay 0.
func TestEBROnReferenceSet(t *testing.T) {
	RunPoison(t, newRefSet)
}

// TestRunResizableOnReference: on a core.Resizable set the battery adds
// its resize legs, which drive widths and pass on a correct Resizable.
func TestRunResizableOnReference(t *testing.T) {
	Run(t, newRefResizable)
}

// TestRunSpecComposite: composite specifications resolved through the
// layered core factory run the battery.
func TestRunSpecComposite(t *testing.T) {
	Run(t, spec(t, "sharded(2,list/lazy)"))
}

// TestScannerBatteryOnReferenceSet: the scan battery accepts a correct
// scanner.
func TestScannerBatteryOnReferenceSet(t *testing.T) {
	RunScanner(t, newRefSet)
}

// TestScannerBatteryUnderResizeOnReference: the scan-under-resize leg
// itself passes against a Resizable whose scans cannot fail.
func TestScannerBatteryUnderResizeOnReference(t *testing.T) {
	RunScanner(t, newRefResizable)
}

// TestRunScannerSpecComposite: a composite spec reaches the scan battery.
func TestRunScannerSpecComposite(t *testing.T) {
	RunScanner(t, spec(t, "sharded(2,list/lazy)"))
}

// TestCursorBatteryOnReferenceSet: the cursor battery accepts a correct
// pagination implementation.
func TestCursorBatteryOnReferenceSet(t *testing.T) {
	RunCursor(t, newRefSet)
}

// TestCursorBatteryUnderResizeOnReference: the cursor-under-resize leg
// itself passes against a Resizable whose pages cannot fail.
func TestCursorBatteryUnderResizeOnReference(t *testing.T) {
	RunCursor(t, newRefResizable)
}

// TestRunCursorSpecComposite: a composite spec reaches the cursor battery.
func TestRunCursorSpecComposite(t *testing.T) {
	RunCursor(t, spec(t, "sharded(2,list/lazy)"))
}

// TestBatcherBatteryOnReferenceSet: the batched battery accepts a
// correct Batcher.
func TestBatcherBatteryOnReferenceSet(t *testing.T) {
	RunBatcher(t, newRefSet)
}

// TestBatcherBatteryUnderResizeOnReference: the batch-under-resize legs
// themselves pass against a Resizable whose batches cannot fail.
func TestBatcherBatteryUnderResizeOnReference(t *testing.T) {
	RunBatcher(t, newRefResizable)
}

// TestRunBatcherSpecComposite: a composite spec reaches the batch battery.
func TestRunBatcherSpecComposite(t *testing.T) {
	RunBatcher(t, spec(t, "sharded(2,list/lazy)"))
}

// TestRegistryCapabilities guards the batteries' capability probes
// against silent skips. Every registered algorithm must implement every
// extension the batteries and the module rely on, so losing one fails
// here instead of quietly dropping a battery. The set that speculates
// under elision — and so gets Elided legs — is pinned too.
func TestRegistryCapabilities(t *testing.T) {
	speculating := map[string]bool{}
	for _, name := range core.Names() {
		info, _ := core.Lookup(name)
		s := info.New(core.Options{})
		for _, c := range []struct {
			iface string
			ok    bool
		}{
			{"core.Scanner", is[core.Scanner](s)},
			{"core.Cursor", is[core.Cursor](s)},
			{"core.Batcher", is[core.Batcher](s)},
			{"core.Ranger", is[core.Ranger](s)},
		} {
			if !c.ok {
				t.Errorf("%s (%T) does not implement %s", name, s, c.iface)
			}
		}
		if elided(info.New) != nil {
			speculating[name] = true
		}
	}
	want := []string{"bst/tk", "hashtable/lazy", "list/lazy", "skiplist/herlihy"}
	if len(speculating) != len(want) {
		t.Errorf("speculating algorithms = %v, want %v", speculating, want)
	}
	for _, name := range want {
		if !speculating[name] {
			t.Errorf("%s does not speculate under Options.ElideAttempts", name)
		}
	}
}

func is[I any](s core.Set) bool {
	_, ok := s.(I)
	return ok
}

// TestElidedProbe: an elided leg is added only when requesting elision
// changes what the factory builds.
func TestElidedProbe(t *testing.T) {
	lazy := spec(t, "list/lazy")
	if elided(lazy) == nil {
		t.Error("list/lazy: no elided leg")
	}
	if elided(elide(lazy)) != nil {
		t.Error("an already elided factory got a second elided leg")
	}
	if elided(newRefSet) != nil {
		t.Error("the reference set, which never speculates, got an elided leg")
	}
	if elided(spec(t, "sharded(2,list/lazy)")) == nil {
		t.Error("sharded(2,list/lazy): no elided leg for a composite over a speculating leaf")
	}
}

// TestScale pins the iteration scaling contract: /4 under -short, /2
// again on single-CPU hosts (where spin-heavy workers timeshare one
// core), floored at 1.
func TestScale(t *testing.T) {
	want := 4000
	if testing.Short() {
		want = 1000
	}
	if runtime.NumCPU() == 1 {
		want /= 2
	}
	if got := scale(4000); got != want {
		t.Fatalf("scale(4000) = %d, want %d (short=%v, cpus=%d)", got, want, testing.Short(), runtime.NumCPU())
	}
	if got := scale(1); got != 1 {
		t.Fatalf("scale(1) = %d, want the floor of 1", got)
	}
}
