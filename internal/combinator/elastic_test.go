package combinator

import (
	"sync"
	"testing"

	"csds/internal/core"
	"csds/internal/settest"
)

// TestElasticSuites runs the full linearizable-set conformance battery
// against elastic composites, including nested ones in both directions.
func TestElasticSuites(t *testing.T) {
	runSpecs(t, settest.Run,
		"elastic(4,list/lazy)",
		"elastic(2,hashtable/lazy)",
		"readcache(64,elastic(4,list/lazy))",
		"elastic(3,striped(2,list/lazy))",
	)
}

// TestElasticResizable runs the concurrent battery while a dedicated
// goroutine grows and shrinks the partition the whole time (the set
// battery's UnderResize legs) — the acceptance gate for online
// resharding.
func TestElasticResizable(t *testing.T) {
	runSpecs(t, settest.Run, "elastic(2,list/lazy)", "elastic(4,skiplist/herlihy)")
}

// TestElasticGrowShrinkMovesKeys checks quiesced resizes migrate every
// key: grow then shrink, verifying width, length, membership and hash
// spread after each step.
func TestElasticGrowShrinkMovesKeys(t *testing.T) {
	s, err := core.Build("elastic(2,list/lazy)", core.Options{ExpectedSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	e := s.(*Elastic)
	c := ctx()
	// One key per aligned 64-key block: the router hashes blocks, so
	// that is the granularity hash spread is a property of.
	const n, stride = 1000, 1 << routeBlockBits
	for k := core.Key(stride); k <= n*stride; k += stride {
		if !s.Put(c, k, k*3) {
			t.Fatalf("Put(%d) failed", k)
		}
	}
	check := func(wantWidth int) {
		t.Helper()
		if w := e.Width(); w != wantWidth {
			t.Fatalf("Width = %d, want %d", w, wantWidth)
		}
		if l := s.Len(); l != n {
			t.Fatalf("Len = %d after resize to %d, want %d", l, wantWidth, n)
		}
		for k := core.Key(stride); k <= n*stride; k += stride {
			if v, ok := s.Get(c, k); !ok || v != k*3 {
				t.Fatalf("after resize to %d: Get(%d) = (%d, %v)", wantWidth, k, v, ok)
			}
		}
		p := e.cur.Load()
		for i := range p.shards {
			if l := p.shards[i].set.Len(); l == 0 || l > 3*n/(2*wantWidth) {
				t.Fatalf("width %d: shard %d holds %d of %d keys — degenerate migration", wantWidth, i, l, n)
			}
		}
	}
	check(2)
	if err := e.Resize(c, 8); err != nil {
		t.Fatal(err)
	}
	check(8)
	if err := e.Resize(c, 3); err != nil {
		t.Fatal(err)
	}
	check(3)
	if got := e.Resizes(); got != 2 {
		t.Fatalf("Resizes = %d, want 2", got)
	}
	// Same-width resize is a no-op and publishes nothing.
	if err := e.Resize(c, 3); err != nil {
		t.Fatal(err)
	}
	if got := e.Resizes(); got != 2 {
		t.Fatalf("no-op resize published an epoch: Resizes = %d", got)
	}
	// Widths below 1 clamp to 1.
	if err := e.Resize(c, 0); err != nil {
		t.Fatal(err)
	}
	if w := e.Width(); w != 1 {
		t.Fatalf("Resize(0) gave width %d, want 1", w)
	}
	check(1)
	// Widths above the spec-grammar ceiling are refused, not allocated.
	if err := e.Resize(c, maxPartitions+1); err == nil {
		t.Fatal("Resize accepted a width above maxPartitions")
	}
	if w := e.Width(); w != 1 {
		t.Fatalf("failed Resize changed the width to %d", w)
	}
}

// TestElasticRequiresRanger pins the constructor-time check: an inner
// structure without iteration support cannot migrate, and the direct
// constructor must say so instead of panicking later.
func TestElasticRequiresRanger(t *testing.T) {
	base, err := core.Build("list/lazy", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Wrapping in a struct that embeds only the Set interface hides the
	// concrete type's Range method.
	type norange struct{ core.Set }
	_, err = NewElastic(2, func(core.Options) core.Set { return norange{base} }, core.Options{})
	if err == nil {
		t.Fatal("NewElastic accepted an inner structure without core.Ranger")
	}
}

// TestElasticAnchorSurvivesResizes isolates the reader-vs-migration race:
// readers must never lose sight of a key that is never removed, no matter
// how many grow/shrink migrations run underneath.
func TestElasticAnchorSurvivesResizes(t *testing.T) {
	s, err := core.Build("elastic(1,list/lazy)", core.Options{ExpectedSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	e := s.(*Elastic)
	c0 := ctx()
	const anchor = core.Key(77)
	if !s.Put(c0, anchor, 7777) {
		t.Fatal("anchor insert failed")
	}
	for k := core.Key(100); k < 200; k++ {
		s.Put(c0, k, k)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	var lost sync.Once
	failed := false
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			c := core.NewCtx(10 + r)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := s.Get(c, anchor); !ok || v != 7777 {
					lost.Do(func() { failed = true })
					return
				}
			}
		}(r)
	}
	rc := core.NewCtx(99)
	widths := []int{4, 1, 16, 2, 8, 1}
	rounds := 60
	if testing.Short() {
		rounds = 15
	}
	for i := 0; i < rounds; i++ {
		if err := e.Resize(rc, widths[i%len(widths)]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	readers.Wait()
	if failed {
		t.Fatal("a reader lost the anchor key during resizing")
	}
	if v, ok := s.Get(c0, anchor); !ok || v != 7777 {
		t.Fatal("anchor missing after resizes")
	}
	if s.Len() != 101 {
		t.Fatalf("Len = %d after resizes, want 101", s.Len())
	}
}

// TestElasticStatsFlow verifies inner fine-grained metrics surface
// through the elastic layer, exactly as through sharded(N,·).
func TestElasticStatsFlow(t *testing.T) {
	s, err := core.Build("elastic(4,list/lazy)", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := ctx()
	for k := core.Key(1); k <= 200; k++ {
		s.Put(c, k, k)
		s.Remove(c, k)
	}
	if c.Stats.LockAcqs == 0 {
		t.Fatal("no lock acquisitions recorded through the elastic layer")
	}
}

// TestElasticRange checks the composite's own iteration: exactly the
// current mappings, no duplicates, early stop honoured.
func TestElasticRange(t *testing.T) {
	s, err := core.Build("elastic(4,list/lazy)", core.Options{ExpectedSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	c := ctx()
	want := map[core.Key]core.Value{}
	for k := core.Key(1); k <= 100; k++ {
		s.Put(c, k, k*2)
		want[k] = k * 2
	}
	got := map[core.Key]core.Value{}
	s.(core.Ranger).Range(func(k core.Key, v core.Value) bool {
		if _, dup := got[k]; dup {
			t.Fatalf("key %d visited twice", k)
		}
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d mappings, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range saw (%d, %d), want value %d", k, got[k], v)
		}
	}
	n := 0
	s.(core.Ranger).Range(func(core.Key, core.Value) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop visited %d, want 10", n)
	}
}

// gatedScan is a leaf whose first Scan — on any instance sharing the
// gate — signals entered and blocks until release closes, so a test can
// land a Resize inside an elastic scan's collect deterministically.
type gatedScan struct {
	core.Set
	gate *scanGate
}

type scanGate struct {
	once             sync.Once
	entered, release chan struct{}
}

func (g gatedScan) Range(f func(k core.Key, v core.Value) bool) { g.Set.(core.Ranger).Range(f) }

func (g gatedScan) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	return g.Set.(core.Cursor).CursorNext(c, pos, hi, max, f)
}

func (g gatedScan) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	g.gate.once.Do(func() {
		close(g.gate.entered)
		<-g.gate.release
	})
	return g.Set.(core.Scanner).Scan(c, lo, hi, f)
}

// TestElasticScanRecordsEpochRetries: a Resize published while a scan is
// collecting its first shard makes that collection stale; the scan must
// discard it, retry on the new map, deliver the exact window, and count
// the discarded epoch in the caller's ScanRetries.
func TestElasticScanRecordsEpochRetries(t *testing.T) {
	gate := &scanGate{entered: make(chan struct{}), release: make(chan struct{})}
	inner, err := core.NewFactory("skiplist/herlihy")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewElastic(2, func(o core.Options) core.Set { return gatedScan{inner(o), gate} }, core.Options{ExpectedSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	fill := ctx()
	for k := core.Key(0); k < 256; k++ {
		e.Put(fill, k, k+1)
	}
	c := core.NewCtx(1)
	var got []core.Key
	var finished bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		finished = e.Scan(c, 10, 250, func(k core.Key, v core.Value) bool {
			if v != k+1 {
				t.Errorf("key %d delivered with value %d", k, v)
			}
			got = append(got, k)
			return true
		})
	}()
	<-gate.entered
	if err := e.Resize(fill, 8); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	<-done
	if !finished || len(got) != 240 {
		t.Fatalf("scan finished=%v with %d keys, want true with 240", finished, len(got))
	}
	for i, k := range got {
		if k != core.Key(10+i) {
			t.Fatalf("position %d holds key %d, want %d", i, k, 10+i)
		}
	}
	if c.Stats.ScanRetries < 1 {
		t.Fatalf("ScanRetries = %d after a scan that discarded a superseded epoch, want >= 1", c.Stats.ScanRetries)
	}
}
