// The benchmark's own load generator. Everything the program under test
// sees — prefill set, op streams, key popularity, arrival schedule — is a
// pure function of -seed and is produced here, before the clock starts,
// so generator cost inside a measured window is an array read. Nothing
// is imported from internal/workload, internal/harness or internal/xrand:
// a later change to those packages must not be able to change the load.
package main

import (
	"math"
	"sort"
)

// The key domain shared by all four workloads: 65 536 resident keys of a
// 131 072 key space (the paper's half-full convention), values f(k) = 7k+1
// so every hit, scan pair and wire VALUE can be checked.
const (
	keySpace = 1 << 17
	prefillN = 1 << 16
)

func valueOf(k int64) int64 { return 7*k + 1 }

// rng is SplitMix64: one 64-bit word of state, full period, and streams
// derived from (seed, stream) never collide for distinct stream numbers.
type rng struct{ s uint64 }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newRng derives an independent stream of the run's seed.
func newRng(seed, stream uint64) *rng {
	return &rng{s: mix64(seed+0x9e3779b97f4a7c15) ^ mix64((stream+1)*0xd1342543de82ef95)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n) (n < 2^32; multiply-shift, the
// bias is below 2^-32 and irrelevant to a load mix).
func (r *rng) intn(n int) int { return int((r.next() >> 32) * uint64(n) >> 32) }

// opKind enumerates what one drawn op asks of the program.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opRemove
	opScan
	opCursor
	opMultiGet
	opMultiPut
	opMultiRemove
	numOpKinds
)

// op packs one drawn operation: kind in the high 4 bits, key in the low 28.
// Range ops use the key as the window start; batch ops take their element
// keys from the following ring entries.
type op uint32

func mkOp(k opKind, key int64) op { return op(uint32(k)<<28 | uint32(key)) }
func (o op) kind() opKind         { return opKind(o >> 28) }
func (o op) key() int64           { return int64(o & (1<<28 - 1)) }

// mix is an op-kind distribution (fractions summing to 1).
type mix [numOpKinds]float64

// draw maps a uniform u to an op kind by cumulative fraction.
func (m *mix) draw(u float64) opKind {
	acc := 0.0
	last := opGet
	for k, f := range m {
		if f == 0 {
			continue
		}
		last = opKind(k)
		acc += f
		if u < acc {
			return last
		}
	}
	return last // u within rounding of 1
}

// zipf is a precomputed Zipf(theta) sampler over keySpace ranks: the CDF
// table is built once, a draw is one binary search. Rank r maps to key
// r*odd mod keySpace (a bijection on a power-of-two domain) so the hot
// keys scatter over shards instead of sitting next to each other.
type zipf struct{ cdf []float64 }

func newZipf(theta float64) *zipf {
	cdf := make([]float64, keySpace)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) key(r *rng) int64 {
	rank := sort.SearchFloat64s(z.cdf, r.float())
	if rank >= keySpace {
		rank = keySpace - 1
	}
	return int64(uint64(rank) * 0x9e3779b1 & (keySpace - 1))
}

// genOps pre-generates a ring of n ops. A nil z draws keys uniformly.
func genOps(r *rng, n int, m *mix, z *zipf) []op {
	ring := make([]op, n)
	for i := range ring {
		kind := m.draw(r.float())
		var key int64
		if z != nil {
			key = z.key(r)
		} else {
			key = int64(r.intn(keySpace))
		}
		ring[i] = mkOp(kind, key)
	}
	return ring
}

// genSchedule pre-generates n Poisson arrival times (ns from the window
// origin) at the given rate: exponential gaps, cumulative.
func genSchedule(r *rng, n int, perSec float64) []int64 {
	due := make([]int64, n)
	t := 0.0
	for i := range due {
		t += -math.Log(1-r.float()) / perSec * 1e9
		due[i] = int64(t)
	}
	return due
}

// prefillKeys picks the prefillN resident keys: a seeded Fisher–Yates
// shuffle of the key space, first half.
func prefillKeys(seed uint64) []int64 {
	r := newRng(seed, 0xf111)
	keys := make([]int64, keySpace)
	for i := range keys {
		keys[i] = int64(i)
	}
	for i := len(keys) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys[:prefillN]
}

// streamHash is FNV-1a over a generated load (op rings then schedules):
// the identity two runs must share to have measured the same inputs.
func streamHash(rings [][]op, dues [][]int64) uint64 {
	h := uint64(0xcbf29ce484222325)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * 0x100000001b3
			v >>= 8
		}
	}
	for _, ring := range rings {
		for _, o := range ring {
			word(uint64(o))
		}
	}
	for _, due := range dues {
		for _, d := range due {
			word(uint64(d))
		}
	}
	return h
}
