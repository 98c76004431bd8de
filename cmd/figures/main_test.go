package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"csds/internal/fault"
	"csds/internal/harness"
)

// TestPaperCellsFire: the Figure 9 and Table 2–3 cells carry the paper's
// adversary plans, and a short run of each fires exactly the point it is
// meant to — cs.delay inside lock-held write phases, htm.abort at the
// speculative commit when elided. A cell starts at 5 ms and doubles its
// window only while nothing has fired yet (the Table 2–3 rates are 1 in
// 1000 draws, which a race-instrumented 5 ms window may not reach).
func TestPaperCellsFire(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  harness.Config
		pt   fault.Point
	}{
		{"fig9/list/lazy", fig9Cell("list/lazy").harnessConfig(), fault.CSDelay},
		{"fig9/hashtable/lazy", fig9Cell("hashtable/lazy").harnessConfig(), fault.CSDelay},
		{"t2/skiplist/herlihy", multiprogramCell("skiplist/herlihy", 1, 5).harnessConfig(), fault.HTMAbort},
		{"t3-locks/bst/tk", multiprogramCell("bst/tk", 1, 0).harnessConfig(), fault.CSDelay},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.cfg.Fault == nil {
				t.Fatal("cell carries no fault plan")
			}
			cfg := tc.cfg
			for cfg.Duration = 5 * time.Millisecond; ; cfg.Duration *= 2 {
				res, err := harness.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if n := res.FaultFires[tc.pt]; n > 0 {
					if res.Faults != n {
						t.Fatalf("plan %s fired %v; want %s only", cfg.Fault, res.FaultFires, tc.pt)
					}
					return
				}
				if cfg.Duration >= time.Second {
					t.Fatalf("plan %s never fired %s in %v", cfg.Fault, tc.pt, cfg.Duration)
				}
			}
		})
	}
}

// TestSimFiguresDeterministic: under -engine sim every figure key renders
// the same bytes twice and opens with its header. The simulator is seeded
// and the sim engine never runs the harness, whose timing would differ.
func TestSimFiguresDeterministic(t *testing.T) {
	defer func(e string) { *engine, out = e, os.Stdout }(*engine)
	*engine = "sim"
	for _, f := range figures {
		var a, b bytes.Buffer
		out = &a
		render(f.key)
		out = &b
		render(f.key)
		if !strings.HasPrefix(a.String(), "=== "+f.title+" ===\n") {
			t.Errorf("-fig %s: no header in %q", f.key, a.String())
		}
		if a.String() != b.String() {
			t.Errorf("-fig %s: two sim renders differ:\n%s\n---\n%s", f.key, a.String(), b.String())
		}
	}
}
