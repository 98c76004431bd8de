package stats

import (
	"math"
	"testing"
)

func TestRecordOpsCounts(t *testing.T) {
	var th Thread
	th.RecordRead(true)
	th.RecordRead(false)
	th.RecordInsert(true)
	th.RecordRemove(false)
	if th.Ops != 4 || th.Reads != 2 || th.Inserts != 1 || th.Removes != 1 {
		t.Fatalf("counts wrong: %+v", th)
	}
	if th.Hits != 2 {
		t.Fatalf("hits = %d, want 2", th.Hits)
	}
}

func TestWaitAccounting(t *testing.T) {
	var th Thread
	th.RecordAcquire()
	th.RecordWait(100)
	th.RecordWait(500)
	if th.LockAcqs != 3 || th.LockWaits != 2 {
		t.Fatalf("acq/wait counts wrong: %+v", th)
	}
	if th.LockWaitNs != 600 || th.MaxWaitNs != 500 {
		t.Fatalf("wait ns wrong: %+v", th)
	}
	th.ActiveNs = 6000
	if got := th.WaitFraction(); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("WaitFraction = %f, want 0.1", got)
	}
}

func TestWaitFractionZeroActive(t *testing.T) {
	var th Thread
	th.RecordWait(100)
	if th.WaitFraction() != 0 {
		t.Fatal("WaitFraction with zero ActiveNs must be 0")
	}
}

func TestRestartBuckets(t *testing.T) {
	var th Thread
	th.RecordRestarts(0)
	th.RecordRestarts(0)
	th.RecordRestarts(1)
	th.RecordRestarts(2)
	th.RecordRestarts(4)
	th.RecordRestarts(100) // lumps into last bucket
	th.Ops = 6
	if th.RestartedOps[0] != 2 || th.RestartedOps[1] != 1 || th.RestartedOps[2] != 1 {
		t.Fatalf("buckets wrong: %v", th.RestartedOps)
	}
	if th.RestartedOps[RestartBuckets-1] != 1 {
		t.Fatalf("overflow bucket wrong: %v", th.RestartedOps)
	}
	if th.Restarts != 0+0+1+2+4+100 {
		t.Fatalf("total restarts = %d", th.Restarts)
	}
	if got := th.RestartedAtLeast(1); math.Abs(got-4.0/6) > 1e-12 {
		t.Fatalf("RestartedAtLeast(1) = %f", got)
	}
	if got := th.RestartedAtLeast(4); math.Abs(got-2.0/6) > 1e-12 {
		t.Fatalf("RestartedAtLeast(4) = %f", got)
	}
}

func TestRestartedAtLeastZeroOps(t *testing.T) {
	var th Thread
	if th.RestartedAtLeast(1) != 0 {
		t.Fatal("no ops must give 0 restart fraction")
	}
}

func TestTxAccounting(t *testing.T) {
	var th Thread
	th.RecordTxAttempt()
	th.RecordTxAbort(AbortConflict)
	th.RecordTxAttempt()
	th.RecordTxAbort(AbortInterrupt)
	th.RecordTxAttempt()
	th.RecordTxCommit()
	th.RecordTxFallback()
	if th.TxAttempts != 3 || th.TxCommits != 1 || th.TxFallbacks != 1 {
		t.Fatalf("tx counts wrong: %+v", th)
	}
	if th.TxAborts[AbortConflict] != 1 || th.TxAborts[AbortInterrupt] != 1 {
		t.Fatalf("abort causes wrong: %v", th.TxAborts)
	}
	if got := th.FallbackFraction(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("FallbackFraction = %f, want 0.5 (1 fallback, 1 commit)", got)
	}
}

func TestFallbackFractionNoCS(t *testing.T) {
	var th Thread
	if th.FallbackFraction() != 0 {
		t.Fatal("FallbackFraction with no critical sections must be 0")
	}
}

func TestAbortCauseString(t *testing.T) {
	cases := map[AbortCause]string{
		AbortConflict:  "conflict",
		AbortInterrupt: "interrupt",
		AbortFallback:  "fallback-held",
		AbortCapacity:  "capacity",
		AbortCause(99): "unknown",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestRecordTxAbortOutOfRange(t *testing.T) {
	var th Thread
	th.RecordTxAbort(AbortCause(-1))
	th.RecordTxAbort(AbortCause(100))
	for _, v := range th.TxAborts {
		if v != 0 {
			t.Fatal("out-of-range abort cause must be ignored")
		}
	}
}

func TestMerge(t *testing.T) {
	var a, b Thread
	a.RecordRead(true)
	a.RecordWait(10)
	a.RecordRestarts(1)
	a.ActiveNs = 5
	a.RecordPagePull(5)
	b.RecordInsert(false)
	b.RecordWait(30)
	b.RecordRestarts(2)
	b.RecordPagePull(7)
	b.ActiveNs = 7
	b.MaxWaitNs = 30
	a.Merge(&b)
	if a.Ops != 2 || a.LockWaitNs != 40 || a.MaxWaitNs != 30 || a.ActiveNs != 12 {
		t.Fatalf("merge wrong: %+v", a)
	}
	if a.PagePulls != 2 || a.PagePullKeys != 12 {
		t.Fatalf("merge pull counters wrong: %+v", a)
	}
	if a.RestartedOps[1] != 1 || a.RestartedOps[2] != 1 {
		t.Fatalf("merge restart buckets wrong: %v", a.RestartedOps)
	}
}

func TestMeanStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %f", m)
	}
	if s := Stddev(xs); math.Abs(s-2) > 1e-12 {
		t.Fatalf("stddev = %f", s)
	}
	if Mean(nil) != 0 || Stddev(nil) != 0 || Stddev([]float64{1}) != 0 {
		t.Fatal("degenerate inputs must give 0")
	}
}

func TestThreadPaddingIndependence(t *testing.T) {
	// Sanity: adjacent threads in a slice do not alias state.
	ths := make([]Thread, 4)
	ths[1].RecordRead(true)
	if ths[0].Ops != 0 || ths[2].Ops != 0 {
		t.Fatal("adjacent thread state aliased")
	}
}
