package skiplist

import (
	"fmt"
	"testing"

	"csds/internal/core"
	"csds/internal/settest"
	"csds/internal/xrand"
)

// twinParts builds two identical lists of n Herlihy instances, each
// holding the even keys below 96: one list takes batches, the other the
// same operations as looped point ops.
func twinParts(n int) (batch, loop []core.Set) {
	c := core.NewCtx(0)
	for range n {
		a, b := NewHerlihy(core.Options{ExpectedSize: 64}), NewHerlihy(core.Options{ExpectedSize: 64})
		for k := core.Key(0); k < 96; k += 2 {
			a.Put(c, k, k)
			b.Put(c, k, k)
		}
		batch, loop = append(batch, a), append(loop, b)
	}
	return batch, loop
}

// TestPartBatchWindows runs MultiGetIn, MultiPutIn and MultiRemoveIn at
// the lane-window edges (empty, one lane, one short of a window, a full
// window, one over, two windows and one) over 1, 3 and 32 parts, on keys
// drawn from a small domain so duplicates and present/absent flips are
// common, against the same operations looped as point ops on a twin.
func TestPartBatchWindows(t *testing.T) {
	for _, nparts := range []int{1, 3, 32} {
		for _, n := range []int{0, 1, lanes - 1, lanes, lanes + 1, 2*lanes + 1} {
			t.Run(fmt.Sprintf("parts=%d/n=%d", nparts, n), func(t *testing.T) {
				batch, loop := twinParts(nparts)
				rng := xrand.New(uint64(nparts*1000 + n))
				c := core.NewCtx(0)
				pb := batch[0].(core.PartBatcher)
				for round := range 8 {
					parts := make([]core.Set, n)
					ref := make([]core.Set, n)
					keys := make([]core.Key, n)
					pairs := make([]core.KV, n)
					for i := range keys {
						p := int(rng.Uint64n(uint64(nparts)))
						parts[i], ref[i] = batch[p], loop[p]
						keys[i] = core.Key(rng.Int63n(96))
						pairs[i] = core.KV{K: keys[i], V: core.Value(round*1000 + i)}
					}
					next := 0
					check := func(i int, got, want any) {
						t.Helper()
						if i != next {
							t.Fatalf("round %d: delivered index %d, want %d", round, i, next)
						}
						next++
						if got != want {
							t.Fatalf("round %d: index %d (key %d) = %v, looped point op says %v", round, i, keys[i], got, want)
						}
					}
					switch round % 3 {
					case 0:
						pb.MultiPutIn(c, parts, pairs, func(i int, ok bool) {
							check(i, ok, ref[i].Put(c, pairs[i].K, pairs[i].V))
						})
					case 1:
						pb.MultiRemoveIn(c, parts, keys, func(i int, ok bool) {
							check(i, ok, ref[i].Remove(c, keys[i]))
						})
					default:
						pb.MultiGetIn(c, parts, keys, func(i int, v core.Value, ok bool) {
							wv, wok := ref[i].Get(c, keys[i])
							check(i, [2]any{v * b2v(ok), ok}, [2]any{wv * b2v(wok), wok})
						})
					}
					if next != n {
						t.Fatalf("round %d: delivered %d of %d results", round, next, n)
					}
				}
				for p := range batch {
					if got, want := contents(batch[p]), contents(loop[p]); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("part %d after the batches holds %v, the looped twin %v", p, got, want)
					}
				}
			})
		}
	}
}

// b2v is 1 for true: a miss's value is unspecified, so it compares as 0.
func b2v(ok bool) core.Value {
	if ok {
		return 1
	}
	return 0
}

func contents(s core.Set) [][2]core.Key {
	var out [][2]core.Key
	s.(core.Ranger).Range(func(k core.Key, v core.Value) bool {
		out = append(out, [2]core.Key{k, v})
		return true
	})
	return out
}

// TestBatchTripleDuplicates puts one key in a batch three times, at
// non-adjacent indices, two in the first lane window and one in the
// second, for Put and for Remove, with the key present and absent
// beforehand: only the first occurrence may change anything, as in the
// looped point ops.
func TestBatchTripleDuplicates(t *testing.T) {
	const k, n = core.Key(41), 80
	at := map[int]bool{3: true, 40: true, 70: true}
	for _, present := range []bool{false, true} {
		for _, op := range []string{"put", "remove"} {
			t.Run(fmt.Sprintf("%s/present=%v", op, present), func(t *testing.T) {
				s := NewHerlihy(core.Options{ExpectedSize: 256})
				c := core.NewCtx(0)
				for i := core.Key(0); i < 2*n; i += 2 {
					s.Put(c, i, i)
				}
				if present {
					s.Put(c, k, -1)
				}
				keys := make([]core.Key, n)
				pairs := make([]core.KV, n)
				for i := range keys {
					keys[i] = core.Key(2*i + 1000) // absent, distinct
					if at[i] {
						keys[i] = k
					}
					pairs[i] = core.KV{K: keys[i], V: core.Value(i)}
				}
				var hits []int
				record := func(i int, ok bool) {
					if keys[i] == k && ok {
						hits = append(hits, i)
					}
				}
				if op == "put" {
					s.MultiPut(c, pairs, record)
				} else {
					s.MultiRemove(c, keys, record)
				}
				var want []int
				if (op == "put") != present {
					want = []int{3}
				}
				if fmt.Sprint(hits) != fmt.Sprint(want) {
					t.Fatalf("indices of key %d that changed the set: %v, want %v", k, hits, want)
				}
				v, ok := s.Get(c, k)
				if wantOK := op == "put"; ok != wantOK || (ok && present && v != -1) || (ok && !present && v != 3) {
					t.Fatalf("Get(%d) after the batch = (%d, %v)", k, v, ok)
				}
			})
		}
	}
}

// TestStaleHint takes a search as a hint, changes the list so the hint
// is stale in each way put and remove must catch — a node linked between
// the hint's pred and succ, the target removed, the target removed and
// re-inserted — then applies the hinted op. It must return what the
// point op returns on the changed list and record exactly one restart.
func TestStaleHint(t *testing.T) {
	for _, tc := range []struct {
		name    string
		key     core.Key
		put     bool
		perturb func(s *Herlihy, c *core.Ctx)
		want    bool
	}{
		{"put/linked-between", 55, true, func(s *Herlihy, c *core.Ctx) { s.Put(c, 57, 57) }, true},
		{"remove/linked-between", 50, false, func(s *Herlihy, c *core.Ctx) { s.Put(c, 45, 45) }, true},
		{"put/target-removed", 50, true, func(s *Herlihy, c *core.Ctx) { s.Remove(c, 50) }, true},
		{"remove/target-removed", 50, false, func(s *Herlihy, c *core.Ctx) { s.Remove(c, 50) }, false},
		{"put/target-reinserted", 50, true, func(s *Herlihy, c *core.Ctx) { s.Remove(c, 50); s.Put(c, 50, 500) }, false},
		{"remove/target-reinserted", 50, false, func(s *Herlihy, c *core.Ctx) { s.Remove(c, 50); s.Put(c, 50, 500) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewHerlihy(core.Options{ExpectedSize: 64})
			c := core.NewCtx(0)
			for k := core.Key(0); k <= 100; k += 10 {
				s.Put(c, k, k)
			}
			var hint descent
			s.find(tc.key, &hint)
			tc.perturb(s, c)
			before := c.Stats.Restarts
			var got bool
			if tc.put {
				got = s.put(c, tc.key, tc.key, &hint)
			} else {
				got = s.remove(c, tc.key, &hint)
			}
			if got != tc.want {
				t.Fatalf("hinted op = %v, the point op on the changed list = %v", got, tc.want)
			}
			if r := c.Stats.Restarts - before; r != 1 {
				t.Fatalf("hinted op recorded %d restarts, want exactly 1", r)
			}
			if _, ok := s.Get(c, tc.key); ok != tc.put {
				t.Fatalf("Get(%d) after the hinted op: present=%v", tc.key, ok)
			}
		})
	}
}

// TestBatchersElided runs the batch battery on an elided instance, whose
// writes take the per-key elided path inside the interleaved pass.
func TestBatchersElided(t *testing.T) {
	settest.RunBatcher(t, func(o core.Options) core.Set {
		o.ElideAttempts = 5
		return NewHerlihy(o)
	})
}
