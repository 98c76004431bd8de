// The two in-process workloads: the library user's view of the system,
// through core.Build and the core.Set/Scanner/Cursor/Batcher interfaces
// with a caller-supplied core.Ctx. No server code runs.
package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"csds/internal/core"
	"csds/internal/ebr"
	"csds/internal/stats"

	_ "csds/internal/combinator"
	_ "csds/internal/hashtable"
	_ "csds/internal/skiplist"
)

// The specs the in-process workloads drive, and the shape of the range
// ops: a 128-key window over a half-full key space holds ≈64 keys.
const (
	pointSpec = "sharded(32,hashtable/lazy)" // csdsd's default
	rangeSpec = "sharded(32,skiplist/herlihy)"
	scanSpan  = 128
	pageMax   = 16
	batchLen  = 64
)

var (
	// pointMix is the paper's 10 %-update mix.
	pointMix = mix{opGet: 0.90, opPut: 0.05, opRemove: 0.05}
	// rangeMix keeps writes beside the reads so ScanGuard retries and
	// batch grouping costs appear.
	rangeMix = mix{opScan: 0.35, opCursor: 0.35, opMultiGet: 0.10,
		opMultiPut: 0.05, opMultiRemove: 0.05, opPut: 0.05, opRemove: 0.05}
)

// workerCount is the closed-loop concurrency: two, and never more than
// the processors the runtime schedules on.
func workerCount() int { return min(2, runtime.GOMAXPROCS(0)) }

// buildSet constructs spec the way server.New does (same sizing hints)
// and prefills it single-threaded. This is the timed part of set-up.
func buildSet(spec string, dom *ebr.Domain, keys []int64) (core.Set, error) {
	set, err := core.Build(spec, core.Options{ExpectedSize: prefillN, KeySpan: keySpace, Domain: dom})
	if err != nil {
		return nil, err
	}
	prefill(set, keys)
	return set, nil
}

func prefill(set core.Set, keys []int64) {
	c := core.NewCtx(0)
	for _, k := range keys {
		set.Put(c, k, valueOf(k))
	}
}

// timeSetups runs setup n times and returns each duration in seconds
// with the product of the last run; the earlier products go to discard.
// The median of several set-ups is what setup_s reports: one build of a
// few tens of milliseconds is at the mercy of a single GC cycle, so each
// also starts from a collected heap.
func timeSetups[T any](n int, setup func() (T, error), discard func(T)) ([]float64, T, error) {
	var last T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(last)
			last = *new(T) // let the collection below take it
		}
		runtime.GC()
		t0 := clock()
		v, err := setup()
		if err != nil {
			return nil, last, err
		}
		secs = append(secs, float64(clock()-t0)/1e9)
		last = v
	}
	return secs, last, nil
}

// setupRepeats is how many set-ups a run from the command line times.
const setupRepeats = 7

// tally is one worker's net successful puts − removes per key. Summed
// over workers and added to the prefill it must land in {0, 1} for every
// key and agree with a final Get sweep and Len().
type tally []int32

// inprocWorker is one closed-loop worker over an in-process set.
type inprocWorker struct {
	set   core.Set
	ctx   *core.Ctx
	ring  []op
	pos   int // next ring entry; the loops resume where they stopped
	rec   *workerRec
	tally tally

	keyBuf  []core.Key
	pairBuf []core.KV
}

func newInprocWorker(id int, set core.Set, dom *ebr.Domain, ring []op) *inprocWorker {
	c := core.NewCtx(id)
	if dom != nil {
		c.Epoch = dom.Register()
	}
	return &inprocWorker{
		set: set, ctx: c, ring: ring,
		rec:     new(workerRec),
		tally:   make(tally, keySpace),
		keyBuf:  make([]core.Key, batchLen),
		pairBuf: make([]core.KV, batchLen),
	}
}

// pointSample is how many point ops share one pair of clock reads: a
// ~150 ns op cannot afford 2×58 ns of timer each time.
const pointSample = 64

// runPoint is the inproc-point loop. One op in pointSample is timed, and
// that op's end time also places the last pointSample ops in a slice.
func (w *inprocWorker) runPoint(win window) {
	set, c, rec, st := w.set, w.ctx, w.rec, w.ctx.Stats
	mask := len(w.ring) - 1
	for i := w.pos; ; i++ {
		o := w.ring[i&mask]
		k := o.key()
		sample := i%pointSample == 0
		var t0 int64
		if sample {
			t0 = clock()
		}
		f := famGet
		switch o.kind() {
		case opGet:
			v, ok := set.Get(c, k)
			if ok && v != valueOf(k) {
				rec.violations++
			}
			if st != nil {
				st.RecordRead(ok)
			}
		case opPut:
			f = famUpdate
			ok := set.Put(c, k, valueOf(k))
			if ok {
				w.tally[k]++
			}
			if st != nil {
				st.RecordInsert(ok)
			}
		case opRemove:
			f = famUpdate
			ok := set.Remove(c, k)
			if ok {
				w.tally[k]--
			}
			if st != nil {
				st.RecordRemove(ok)
			}
		}
		if sample {
			t1 := clock()
			slot := win.slot(t1)
			if slot >= nSlices {
				w.pos = i + 1
				return
			}
			if slot >= 0 {
				rec.timed(slot, f, t1-t0, 1)
				rec.ops[slot] += pointSample - 1
				rec.keys[slot] += pointSample - 1
			}
		}
	}
}

// runRange is the inproc-range loop: every op is ≥ ~1 µs and most are
// tens, so each one is timed on its own.
func (w *inprocWorker) runRange(win window) {
	set, c, rec, st := w.set, w.ctx, w.rec, w.ctx.Stats
	scanner, cursor, batcher := set.(core.Scanner), set.(core.Cursor), set.(core.Batcher)
	mask := len(w.ring) - 1
	// done records one timed op — in the worker's record when it falls in
	// the window, and always in the stats slot, whose retry and pull
	// counters run from the first op — and reports false once the window
	// is over.
	done := func(f family, t0 int64, keys int) bool {
		t1 := clock()
		switch f {
		case famScan:
			st.RecordScan(keys, uint64(t1-t0))
		case famPage:
			st.RecordPage(keys, uint64(t1-t0))
		case famBatch:
			st.RecordBatch(keys, uint64(t1-t0))
		}
		slot := win.slot(t1)
		if slot >= 0 && slot < nSlices {
			rec.timed(slot, f, t1-t0, keys)
		}
		return slot < nSlices
	}
	i := w.pos
	defer func() { w.pos = i + 1 }()
	for ; ; i++ {
		o := w.ring[i&mask]
		k := o.key()
		switch o.kind() {
		case opPut:
			t0 := clock()
			if set.Put(c, k, valueOf(k)) {
				w.tally[k]++
			}
			if !done(famUpdate, t0, 1) {
				return
			}
		case opRemove:
			t0 := clock()
			if set.Remove(c, k) {
				w.tally[k]--
			}
			if !done(famUpdate, t0, 1) {
				return
			}
		case opScan:
			n, prev := 0, k-1
			t0 := clock()
			scanner.Scan(c, k, k+scanSpan, func(sk core.Key, v core.Value) bool {
				if sk <= prev || sk >= k+scanSpan || v != valueOf(sk) {
					rec.violations++
				}
				prev = sk
				n++
				return true
			})
			if !done(famScan, t0, n) {
				return
			}
		case opCursor:
			// One paginated iteration, run to done; each page is an op.
			pos, hi, prev := k, k+scanSpan, k-1
			for fin := false; !fin; {
				n := 0
				t0 := clock()
				pos, fin = cursor.CursorNext(c, pos, hi, pageMax, func(pk core.Key, v core.Value) bool {
					if pk <= prev || pk >= hi || v != valueOf(pk) {
						rec.violations++
					}
					prev = pk
					n++
					return true
				})
				if n > pageMax {
					rec.violations++
				}
				if !done(famPage, t0, n) {
					return
				}
			}
		case opMultiGet, opMultiPut, opMultiRemove:
			// The batch's keys are the next batchLen ring entries.
			for j := range w.keyBuf {
				i++
				bk := w.ring[i&mask].key()
				w.keyBuf[j] = bk
				w.pairBuf[j] = core.KV{K: bk, V: valueOf(bk)}
			}
			t0 := clock()
			switch o.kind() {
			case opMultiGet:
				batcher.MultiGet(c, w.keyBuf, func(j int, v core.Value, ok bool) {
					if ok && v != valueOf(w.keyBuf[j]) {
						rec.violations++
					}
				})
			case opMultiPut:
				batcher.MultiPut(c, w.pairBuf, func(j int, inserted bool) {
					if inserted {
						w.tally[w.keyBuf[j]]++
					}
				})
			default:
				batcher.MultiRemove(c, w.keyBuf, func(j int, removed bool) {
					if removed {
						w.tally[w.keyBuf[j]]--
					}
				})
			}
			if !done(famBatch, t0, batchLen) {
				return
			}
		}
	}
}

// inprocWorkload is what distinguishes inproc-point from inproc-range.
type inprocWorkload struct {
	spec    string
	mix     *mix
	ringLen int // power of two
	loop    func(*inprocWorker, window)
	// cells prices the layers under this workload (traced runs).
	cells func(L map[string]float64, seed uint64, keys []int64, ring []op, budget time.Duration) error
}

var (
	inprocPoint = inprocWorkload{pointSpec, &pointMix, 1 << 20, (*inprocWorker).runPoint, pointLayers}
	inprocRange = inprocWorkload{rangeSpec, &rangeMix, 1 << 18, (*inprocWorker).runRange, rangeLayers}
)

func (wl *inprocWorkload) rings(seed uint64, n int) [][]op {
	rings := make([][]op, n)
	for i := range rings {
		rings[i] = genOps(newRng(seed, uint64(i)), wl.ringLen, wl.mix, nil)
	}
	return rings
}

// inprocResult is one measured window's product: the records, the
// workers' merged stats slots and update ledgers, and the reclamation
// counters at window end, before quiesce.
type inprocResult struct {
	measured
	stats              stats.Thread
	tallies            []tally
	retired, reclaimed uint64
}

// run measures one window of wl over a freshly built set and verifies it.
func (wl *inprocWorkload) run(cfg runConfig) (*outcome, error) {
	keys := prefillKeys(cfg.seed)
	rings := wl.rings(cfg.seed, workerCount())
	out := &outcome{hash: streamHash(rings, nil), layers: map[string]float64{}}

	type built struct {
		set core.Set
		dom *ebr.Domain
	}
	setup, b, err := timeSetups(cfg.setups, func() (built, error) {
		dom := ebr.NewDomain()
		set, err := buildSet(wl.spec, dom, keys)
		return built{set, dom}, err
	}, func(built) {})
	if err != nil {
		return nil, err
	}
	out.setup = setup

	share := cfg.seconds
	if cfg.trace {
		share = cfg.seconds / 2 // the other half goes to the differential cells
	}
	iw := wl.window(b.set, b.dom, rings, share)
	out.m = &iw.measured
	out.count(iw.recs)
	out.violations += verifySet(b.set, keys, iw.tallies)
	if ret, rec := b.dom.Stats(); ret != rec {
		out.violations++
		out.notes = append(out.notes, fmt.Sprintf("domain did not quiesce: retired %d, reclaimed %d", ret, rec))
	}
	if cfg.trace {
		if err := wl.layers(out, iw, cfg.seed, keys, rings[0], cfg.seconds-share); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// window runs the workers through one warm-up + measured window and
// quiesces the reclamation domain behind them.
func (wl *inprocWorkload) window(set core.Set, dom *ebr.Domain, rings [][]op, d time.Duration) *inprocResult {
	workers := make([]*inprocWorker, len(rings))
	for i := range workers {
		workers[i] = newInprocWorker(i, set, dom, rings[i])
	}
	res := &inprocResult{}
	res.win = newWindow(d)
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wl.loop(w, res.win)
		}()
	}
	res.a, res.b, res.cpu = res.win.bracket()
	wg.Wait()
	runtime.GC()
	res.heapLive = takeSnap().heapInuse
	res.retired, res.reclaimed = dom.Stats()
	for _, w := range workers {
		res.recs = append(res.recs, w.rec)
		res.tallies = append(res.tallies, w.tally)
		w.ctx.Stats.ActiveNs = uint64(clock() - res.win.origin)
		res.stats.Merge(w.ctx.Stats)
		w.ctx.Epoch.Unregister()
	}
	quiesce(dom)
	return res
}

// quiesce ages every retired node out of its grace period once all
// records have unregistered (what server.Shutdown does for its domain).
func quiesce(dom *ebr.Domain) {
	for i := 0; i < 8; i++ {
		if ret, rec := dom.Stats(); ret == rec {
			return
		}
		dom.Advance()
	}
}

// verifySet checks the per-key ledger against the structure: prefill plus
// the workers' net successful updates must be 0 or 1 for every key, match
// presence on a final Get sweep with the right value, and sum to Len().
// It returns the number of violations.
func verifySet(set core.Set, prefilled []int64, tallies []tally) (violations uint64) {
	want := make([]int32, keySpace)
	for _, k := range prefilled {
		want[k] = 1
	}
	for _, t := range tallies {
		for k, d := range t {
			want[k] += d
		}
	}
	c := core.NewCtx(0)
	total := 0
	for k, n := range want {
		v, ok := set.Get(c, core.Key(k))
		switch {
		case n != 0 && n != 1:
			violations++
		case ok != (n == 1):
			violations++
		case ok && v != valueOf(int64(k)):
			violations++
		}
		if n == 1 {
			total++
		}
	}
	if set.Len() != total {
		violations++
	}
	return violations
}
