package main

import (
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
		{"fig9/list/lazy", fig9Config("list/lazy"), fault.CSDelay},
		{"fig9/hashtable/lazy", fig9Config("hashtable/lazy"), fault.CSDelay},
		{"t2/skiplist/herlihy", multiprogramConfig("skiplist/herlihy", 1, 5), fault.HTMAbort},
		{"t3-locks/bst/tk", multiprogramConfig("bst/tk", 1, 0), fault.CSDelay},
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
