// Composite-aware bridge from the internal/sim structure models to
// measured harness cells: PredictCell decomposes a composite spec
// (sharded/striped/elastic widths, readcache capacity) into adjustments
// of the leaf's cost model and runs the simulator on the result. It is
// the engine of cmd/csdsmodel -validate, which fits one global scale
// factor across its roster and reports per-cell residuals — the simulator
// is calibrated for shape, not nanoseconds, so only the relative error
// across cells is meaningful.
package tuner

import (
	"fmt"
	"math"

	"csds/internal/core"
	"csds/internal/sim"
	"csds/internal/xrand"
)

// Cell is the identity of one measured harness cell: what the
// prediction needs to know about the run.
type Cell struct {
	Alg        string
	Threads    int
	Size       int
	Updates    float64
	Zipf       float64
	ScanFrac   float64
	CursorFrac float64
	BatchFrac  float64
}

// Composite is the decomposed shape of a spec: the leaf cost model plus
// the combinator parameters that matter to the simulator.
type Composite struct {
	Leaf       sim.Structure
	Width      int // product of sharded/striped/elastic widths (1 = none)
	CacheSlots int // readcache capacity (0 = none)
}

// ParseComposite decomposes an algorithm spec. Nested partition widths
// multiply (sharded(4,striped(2,x)) partitions 8 ways); nested caches
// sum their capacities (the outer one dominates in practice). Unknown
// leaves (no sim model) and unknown combinators error.
func ParseComposite(spec string) (Composite, error) {
	s, err := core.ParseSpec(spec)
	if err != nil {
		return Composite{}, err
	}
	comp := Composite{Width: 1}
	for !s.IsLeaf() {
		switch s.Name {
		case "sharded", "striped", "elastic":
			if s.Arg > 0 {
				comp.Width *= s.Arg
			}
		case "readcache":
			comp.CacheSlots += s.Arg
		default:
			return Composite{}, fmt.Errorf("tuner: no cost adjustment for combinator %q", s.Name)
		}
		s = s.Inner
	}
	leaf, ok := sim.ModelFor(s.Name)
	if !ok {
		return Composite{}, fmt.Errorf("tuner: no cost model for leaf %q", s.Name)
	}
	comp.Leaf = leaf
	return comp, nil
}

// hitMass returns the fraction of reads a cache of the given slot count
// absorbs under zipf(s) over the keyspace: the mass of the hottest
// slots/2 ranks. The /2 inverts Derive's direct-map collision slack —
// a direct-mapped table reliably holds about half its slot count in
// distinct hot keys before collisions start evicting the head.
func hitMass(slots int, keySpace int64, s float64) float64 {
	if slots <= 0 || s <= 0 || keySpace < 1 {
		return 0
	}
	z := xrand.NewZipf(keySpace, s)
	held := int64(slots / 2)
	if held < 1 {
		held = 1
	}
	if held > keySpace {
		held = keySpace
	}
	mass := 0.0
	for i := int64(1); i <= held; i++ {
		mass += z.P(i)
	}
	return mass
}

// PredictCell returns the simulator's predicted point-operation
// throughput (ops/s, unscaled) for the cell on the given machine.
//
// Combinator adjustments, in the order they wrap the leaf:
//
//   - width W: traversals see a structure 1/W the size (Hops(n) ->
//     leaf.Hops(n/W)) and the collision term both shrinks to the
//     per-shard size and divides by W (two writers must pick the same
//     shard before they can collide);
//   - readcache C: the captured read mass skips the traversal entirely,
//     modeled by scaling TraversalFactor by 1 - hitmass*(1-u) (the
//     update share still traverses to invalidate; cache-hit reads still
//     pay the fixed per-op overhead).
//
// Non-point operations are not simulated; the prediction scales by the
// point-op fraction so cells with scan/cursor/batch tails stay
// comparable to their measured mops column.
func PredictCell(c Cell, m sim.Machine) (float64, error) {
	comp, err := ParseComposite(c.Alg)
	if err != nil {
		return 0, err
	}
	st := comp.Leaf
	if comp.Width > 1 {
		w := comp.Width
		leafHops := st.Hops
		leafB := st.B
		st.Hops = func(n int) float64 {
			pn := n / w
			if pn < 1 {
				pn = 1
			}
			return leafHops(pn)
		}
		st.B = func(k, n int) float64 {
			pn := n / w
			if pn < 2 {
				pn = 2
			}
			return leafB(k, pn) / float64(w)
		}
	}
	keySpace := int64(2 * c.Size) // the harness default: structure holds half the domain
	var sumP2 float64
	if c.Zipf > 0 {
		sumP2 = xrand.NewZipf(keySpace, c.Zipf).SumPSquared()
	}
	if comp.CacheSlots > 0 {
		h := hitMass(comp.CacheSlots, keySpace, c.Zipf)
		st.TraversalFactor *= 1 - h*(1-c.Updates)
	}
	res := sim.Run(sim.Config{
		Machine:     m,
		Structure:   st,
		Threads:     c.Threads,
		Size:        c.Size,
		UpdateRatio: c.Updates,
		SumP2:       sumP2,
		Ops:         8192,
		Seed:        0x7E57,
	})
	pointFrac := 1 - c.ScanFrac - c.CursorFrac - c.BatchFrac
	if pointFrac < 0 {
		pointFrac = 0
	}
	return res.ThroughputOpsPerSec * pointFrac, nil
}

// NeutralMachine builds a flat machine model for validation runs: t
// hardware contexts with no socket or SMT topology, so the prediction's
// cross-cell shape comes from the structure and conflict models alone
// rather than from topology the measurement host does not have. The
// global scale fit in Validate absorbs the absolute hop latency.
func NeutralMachine(threads int) sim.Machine {
	if threads < 1 {
		threads = 1
	}
	return sim.Machine{
		Cores: threads, HWThreads: threads, SocketCores: threads,
		HopNs: refHopNs, CrossSocket: 0, SMTPenalty: 0,
		InvalidationFactor: 2.0,
		QuantumNs:          12e6, SwapNs: 37e6,
	}
}

// CellError is one cell's validation outcome.
type CellError struct {
	Key       string  // human-readable cell identity
	LiveMops  float64 // measured point throughput, Mops/s
	PredMops  float64 // scaled prediction, Mops/s
	ResidFrac float64 // pred/live - 1 after the global scale fit
}

// Validation is the roster-level result of Validate.
type Validation struct {
	Scale   float64 // fitted live/raw-prediction factor (geometric mean)
	MAEFrac float64 // mean |residual|
	Cells   []CellError
}

// Validate fits the simulator to measured cells with one global scale
// factor (geometric mean of live/predicted — the simulator predicts
// shape, the factor absorbs the measurement host's absolute speed) and
// returns per-cell residuals. Cells that cannot be predicted (unknown
// leaf or combinator) or did not measure point throughput are skipped.
func Validate(cells []Cell, keys []string, live []float64) (Validation, error) {
	if len(cells) != len(live) || len(cells) != len(keys) {
		return Validation{}, fmt.Errorf("tuner: %d cells, %d keys, %d measurements", len(cells), len(keys), len(live))
	}
	var v Validation
	var raw []float64
	var idx []int
	logSum := 0.0
	for i, c := range cells {
		if live[i] <= 0 {
			continue
		}
		p, err := PredictCell(c, NeutralMachine(c.Threads))
		if err != nil || p <= 0 {
			continue
		}
		raw = append(raw, p)
		idx = append(idx, i)
		logSum += math.Log(live[i] / p)
	}
	if len(raw) == 0 {
		return Validation{}, fmt.Errorf("tuner: no predictable cells")
	}
	v.Scale = math.Exp(logSum / float64(len(raw)))
	for j, i := range idx {
		pred := raw[j] * v.Scale
		resid := pred/live[i] - 1
		v.MAEFrac += math.Abs(resid)
		v.Cells = append(v.Cells, CellError{
			Key:       keys[i],
			LiveMops:  live[i] / 1e6,
			PredMops:  pred / 1e6,
			ResidFrac: resid,
		})
	}
	v.MAEFrac /= float64(len(v.Cells))
	return v, nil
}
