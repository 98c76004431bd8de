package tuner

import (
	"fmt"
	"strings"
	"testing"

	"csds/internal/core"
	"csds/internal/workload"

	_ "csds/internal/bst"
	_ "csds/internal/combinator"
	_ "csds/internal/hashtable"
	_ "csds/internal/list"
	_ "csds/internal/skiplist"
)

// TestDeriveListGridCell pins the derivation for the auto-tuned cell of
// csdsmodel -validate's roster: ycsb-b over a 2048-element list at 4
// threads. The exact spec string is the tuner's pinned identity, so a
// change here is a deliberate change of derivation rule.
func TestDeriveListGridCell(t *testing.T) {
	cfg, err := workload.ParseMix("ycsb-b")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Derive(Inputs{Leaf: "list/lazy", Threads: 4, Size: 2048, Workload: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if d.Width < 8 {
		t.Fatalf("width %d: a 2048-element list wants deep sharding (traversal term)", d.Width)
	}
	if d.CacheSlots == 0 {
		t.Fatal("ycsb-b (5%% updates, zipf .99) must derive a cache layer")
	}
	if d.CacheAdmission != "tinylfu" {
		t.Fatalf("admission %q, want tinylfu for a point-skewed mix", d.CacheAdmission)
	}
	want := fmt.Sprintf("readcache(%d,sharded(%d,list/lazy))", d.CacheSlots, d.Width)
	if d.Spec != want {
		t.Fatalf("spec %q, want %q", d.Spec, want)
	}
	// The exact string also appears in csdsmodel's TestAutoSpecDerivesGridCell
	// and the csdsmodel walkthrough in the README: changing the
	// derivation means updating all three.
	if const_ := "readcache(1024,sharded(32,list/lazy))"; d.Spec != const_ {
		t.Fatalf("spec %q, want the pinned identity %q", d.Spec, const_)
	}
	if _, err := core.ParseSpec(d.Spec); err != nil {
		t.Fatalf("derived spec does not parse: %v", err)
	}
	if _, err := core.Build(d.Spec, core.Options{ExpectedSize: 2048}); err != nil {
		t.Fatalf("derived spec does not build: %v", err)
	}
	if len(d.Notes) < 2 {
		t.Fatalf("notes %v: every derived parameter must be explained", d.Notes)
	}
}

// TestDeriveDeterministic: same inputs, same answer — the pinned
// identity depends on it.
func TestDeriveDeterministic(t *testing.T) {
	cfg, _ := workload.ParseMix("ycsb-b")
	in := Inputs{Leaf: "list/lazy", Threads: 4, Size: 2048, Workload: cfg}
	a, _ := Derive(in)
	b, _ := Derive(in)
	if a.Spec != b.Spec || a.Conflict != b.Conflict || a.HitMass != b.HitMass {
		t.Fatalf("Derive is not deterministic: %+v vs %+v", a, b)
	}
}

// TestDeriveCacheGates: each gate alone suppresses the cache layer.
func TestDeriveCacheGates(t *testing.T) {
	base := workload.Config{UpdateRatio: 0.05, ZipfS: 0.99}
	for name, mutate := range map[string]func(*workload.Config){
		"write-heavy": func(c *workload.Config) { c.UpdateRatio = 0.5 },
		"uniform":     func(c *workload.Config) { c.ZipfS = 0 },
		"scan-heavy":  func(c *workload.Config) { c.ScanRatio = 0.6 },
		"think-paced": func(c *workload.Config) { c.ThinkNs = 100_000 },
		"drifting":    func(c *workload.Config) { c.DriftPeriod = 0.25 },
	} {
		cfg := base
		mutate(&cfg)
		d, err := Derive(Inputs{Leaf: "list/lazy", Threads: 4, Size: 2048, Workload: cfg})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.CacheSlots != 0 {
			t.Fatalf("%s: derived a %d-slot cache; the gate should have refused", name, d.CacheSlots)
		}
		if strings.Contains(d.Spec, "readcache") {
			t.Fatalf("%s: spec %q carries a cache layer", name, d.Spec)
		}
	}
	// The ungated baseline does cache, so the gates above are meaningful.
	d, err := Derive(Inputs{Leaf: "list/lazy", Threads: 4, Size: 2048, Workload: base})
	if err != nil {
		t.Fatal(err)
	}
	if d.CacheSlots == 0 {
		t.Fatal("baseline mix derived no cache; the gate tests prove nothing")
	}
}

// TestDeriveScanHeavyStaysNarrow: when range ops dominate, the
// traversal term is suppressed — a scan wider than width blocks visits
// every shard and pays the merge fan-in — so width comes from the
// conflict term alone (ycsb-e on a low-contention machine keeps the
// bare leaf).
func TestDeriveScanHeavyStaysNarrow(t *testing.T) {
	cfg, err := workload.ParseMix("ycsb-e")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Derive(Inputs{Leaf: "list/lazy", Threads: 4, Size: 2048, Workload: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if d.Width != 1 {
		t.Fatalf("width %d: 95%% scans should suppress the traversal term; want 1", d.Width)
	}
	if d.Spec != "list/lazy" {
		t.Fatalf("spec %q, want the bare leaf", d.Spec)
	}
}

// TestDeriveHashStaysNarrow: constant-hop leaves have no traversal term,
// so width comes from conflicts alone and a low-contention scenario
// stays unsharded.
func TestDeriveHashStaysNarrow(t *testing.T) {
	d, err := Derive(Inputs{Leaf: "hashtable/lazy", Threads: 4, Size: 2048,
		Workload: workload.Config{UpdateRatio: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Width != 1 {
		t.Fatalf("width %d: 4 threads on a 2048-bucket table conflict ~never; want 1", d.Width)
	}
	if d.Spec != "hashtable/lazy" {
		t.Fatalf("spec %q, want the bare leaf", d.Spec)
	}
}

// TestDeriveWidthMonotoneInThreads: more threads never derive a
// narrower composite.
func TestDeriveWidthMonotoneInThreads(t *testing.T) {
	prev := 0
	for _, threads := range []int{1, 4, 16, 64} {
		d, err := Derive(Inputs{Leaf: "hashtable/lazy", Threads: threads, Size: 256,
			Workload: workload.Config{UpdateRatio: 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		if d.Width < prev {
			t.Fatalf("width shrank from %d to %d when threads grew to %d", prev, d.Width, threads)
		}
		prev = d.Width
	}
}

// TestDerivePageFloor: cursor mixes get a page hint floored at
// width * the streaming refill chunk.
func TestDerivePageFloor(t *testing.T) {
	d, err := Derive(Inputs{Leaf: "list/lazy", Threads: 4, Size: 2048,
		Workload: workload.Config{UpdateRatio: 0.1, CursorRatio: 0.1, PageLen: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(d.Width) * core.StreamMinChunk; d.PageLen != want {
		t.Fatalf("page hint %d, want the %d floor (width %d)", d.PageLen, want, d.Width)
	}
	// A page already above the floor passes through untouched.
	d2, err := Derive(Inputs{Leaf: "list/lazy", Threads: 4, Size: 2048,
		Workload: workload.Config{UpdateRatio: 0.1, CursorRatio: 0.1, PageLen: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	if d2.PageLen != 4096 {
		t.Fatalf("page hint %d clobbered an explicit 4096", d2.PageLen)
	}
}

// TestDeriveErrors: composites and unknown leaves are refused with
// actionable messages.
func TestDeriveErrors(t *testing.T) {
	if _, err := Derive(Inputs{Leaf: "sharded(8,list/lazy)", Threads: 4, Size: 2048}); err == nil {
		t.Fatal("composite leaf accepted")
	}
	if _, err := Derive(Inputs{Leaf: "nosuch/alg", Threads: 4, Size: 2048}); err == nil {
		t.Fatal("unknown leaf accepted")
	}
	if _, err := Derive(Inputs{Leaf: "list/lazy", Threads: 0, Size: 2048}); err == nil {
		t.Fatal("zero threads accepted")
	}
	if _, err := Derive(Inputs{Leaf: "list/lazy", Threads: 4, Size: 0}); err == nil {
		t.Fatal("zero size accepted")
	}
}

// TestParseComposite decomposes the grid's spec shapes.
func TestParseComposite(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		width int
		cache int
		leaf  string
	}{
		{"list/lazy", 1, 0, "list"},
		{"sharded(8,list/lazy)", 8, 0, "list"},
		{"elastic(32,list/lazy)", 32, 0, "list"},
		{"readcache(1024,list/lazy)", 1, 1024, "list"},
		{"readcache(128,sharded(32,list/lazy))", 32, 128, "list"},
		{"sharded(4,striped(2,bst/tk))", 8, 0, "bst"},
	} {
		comp, err := ParseComposite(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if comp.Width != tc.width || comp.CacheSlots != tc.cache || comp.Leaf.Name != tc.leaf {
			t.Fatalf("%s: got width=%d cache=%d leaf=%s, want %d/%d/%s",
				tc.spec, comp.Width, comp.CacheSlots, comp.Leaf.Name, tc.width, tc.cache, tc.leaf)
		}
	}
	if _, err := ParseComposite("nosuch(4,list/lazy)"); err == nil {
		t.Fatal("unknown combinator accepted")
	}
	if _, err := ParseComposite("queue("); err == nil {
		t.Fatal("syntax error accepted")
	}
}

// TestPredictCellOrdering: the prediction must reproduce the grid's
// qualitative shape — a sharded list far outruns the plain list, and
// wider beats narrower for linear traversals.
func TestPredictCellOrdering(t *testing.T) {
	m := NeutralMachine(4)
	pred := func(alg string) float64 {
		p, err := PredictCell(Cell{Alg: alg, Threads: 4, Size: 2048, Updates: 0.1}, m)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		return p
	}
	plain := pred("list/lazy")
	s8 := pred("sharded(8,list/lazy)")
	s32 := pred("sharded(32,list/lazy)")
	if !(plain < s8 && s8 < s32) {
		t.Fatalf("prediction ordering broken: plain %.0f, sharded(8) %.0f, sharded(32) %.0f", plain, s8, s32)
	}
	if s8 < 3*plain {
		t.Fatalf("sharded(8) predicted only %.1fx the plain list; traversal scaling is lost", s8/plain)
	}
}

// TestPredictCellCacheHelps: a cache over a skewed read mix predicts
// more throughput than the same composite without it.
func TestPredictCellCacheHelps(t *testing.T) {
	m := NeutralMachine(4)
	base := Cell{Alg: "list/lazy", Threads: 4, Size: 2048, Updates: 0.1, Zipf: 0.9}
	cached := base
	cached.Alg = "readcache(1024,list/lazy)"
	p0, err := PredictCell(base, m)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := PredictCell(cached, m)
	if err != nil {
		t.Fatal(err)
	}
	if p1 <= p0 {
		t.Fatalf("cache predicted no gain: %.0f -> %.0f", p0, p1)
	}
}

// TestPredictPointFractionScaling: a scan tail shrinks the predicted
// point throughput proportionally.
func TestPredictPointFractionScaling(t *testing.T) {
	m := NeutralMachine(4)
	full := Cell{Alg: "list/lazy", Threads: 4, Size: 2048, Updates: 0.1}
	tailed := full
	tailed.ScanFrac, tailed.CursorFrac = 0.05, 0.05
	p0, _ := PredictCell(full, m)
	p1, _ := PredictCell(tailed, m)
	if got, want := p1/p0, 0.9; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("point fraction scaling %.4f, want %.4f", got, want)
	}
}

// TestValidateFitsScale: Validate on synthetic "measurements" that are
// an exact multiple of the prediction recovers the factor with zero
// residual.
func TestValidateFitsScale(t *testing.T) {
	cells := []Cell{
		{Alg: "list/lazy", Threads: 4, Size: 2048, Updates: 0.1},
		{Alg: "sharded(8,list/lazy)", Threads: 4, Size: 2048, Updates: 0.1},
		{Alg: "sharded(32,list/lazy)", Threads: 4, Size: 2048, Updates: 0.1},
	}
	keys := []string{"a", "b", "c"}
	const factor = 3.7
	live := make([]float64, len(cells))
	for i, c := range cells {
		p, err := PredictCell(c, NeutralMachine(c.Threads))
		if err != nil {
			t.Fatal(err)
		}
		live[i] = p * factor
	}
	v, err := Validate(cells, keys, live)
	if err != nil {
		t.Fatal(err)
	}
	if v.Scale < factor*0.999 || v.Scale > factor*1.001 {
		t.Fatalf("fitted scale %.4f, want %.4f", v.Scale, factor)
	}
	if v.MAEFrac > 1e-6 {
		t.Fatalf("MAE %.6f on exact-multiple data, want ~0", v.MAEFrac)
	}
	if len(v.Cells) != 3 {
		t.Fatalf("%d cells validated, want 3", len(v.Cells))
	}
}

// TestValidateSkipsUnpredictable: cells with unknown specs or zero
// measurements are skipped, not fatal.
func TestValidateSkipsUnpredictable(t *testing.T) {
	cells := []Cell{
		{Alg: "list/lazy", Threads: 4, Size: 2048, Updates: 0.1},
		{Alg: "nosuch/alg", Threads: 4, Size: 2048},
		{Alg: "list/lazy", Threads: 4, Size: 2048},
	}
	live := []float64{1e6, 1e6, 0}
	v, err := Validate(cells, []string{"a", "b", "c"}, live)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Cells) != 1 {
		t.Fatalf("%d cells validated, want 1 (two skipped)", len(v.Cells))
	}
	if _, err := Validate(nil, nil, nil); err == nil {
		t.Fatal("empty grid must error, not return a vacuous fit")
	}
}
