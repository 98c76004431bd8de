// Package csds is a Go library of concurrent search data structures and
// the benchmarking/analysis toolkit reproducing "Concurrent Search Data
// Structures Can Be Blocking and Practically Wait-Free" (Tudor David and
// Rachid Guerraoui, SPAA 2016).
//
// The library provides linearizable set implementations — linked lists,
// skip lists, hash tables and binary search trees — in blocking,
// lock-free and wait-free flavours, instrumented with the paper's
// fine-grained metrics (time spent waiting for locks, operation restarts,
// HTM-elision fallbacks). The featured blocking algorithms (lazy list,
// Herlihy optimistic skip list, per-bucket-lock lazy hash table, BST-TK)
// are the ones the paper shows are *practically wait-free*: on realistic
// workloads a negligible fraction of requests is ever delayed by
// concurrency.
//
// Quick start:
//
//	s := csds.NewLazyList()            // or NewBSTTK(), NewLazyHashTable(n)...
//	c := csds.NewCtx(0)                // one per goroutine
//	s.Put(c, 42, 420)
//	v, ok := s.Get(c, 42)
//	s.Remove(c, 42)
//
// Every operation takes a *Ctx: Go has no thread-local storage, so the
// per-thread pieces (PRNG, statistics, EBR record) travel explicitly,
// mirroring ASCYLIB's per-thread initialization.
//
// Beyond single instances, the library composes structures horizontally
// through combinators — wrappers that are themselves linearizable Sets.
// A composite specification string names them:
//
//	s, err := csds.Build("sharded(16,list/lazy)", csds.Options{})     // 16-way hash sharding
//	s, err := csds.Build("striped(8,skiplist/herlihy)", csds.Options{}) // ordered key-space stripes
//	s, err := csds.Build("readcache(1024,bst/tk)", csds.Options{})    // bounded read-through cache
//	s, err := csds.Build("readcache(512,sharded(4,hashtable/lazy))", csds.Options{}) // nested
//	s, err := csds.Build("elastic(4,list/lazy)", csds.Options{})      // resizable online
//
// Composites accept the same *Ctx and feed the same fine-grained metrics
// (lock waiting, restarts) through every layer, so the harness measures
// them exactly like plain algorithms. NewSharded, NewStriped, NewReadCached
// and NewElastic are typed shortcuts over the same grammar. An elastic
// composite implements Resizable — Resize(c, n) repartitions online —
// and every structure implements Ranger (quiesced iteration) and Scanner
// (linearizable range scans):
//
//	s.(csds.Scanner).Scan(c, 100, 200, func(k csds.Key, v csds.Value) bool {
//		... // keys in [100, 200), ascending on ordered structures
//		return true
//	})
//
// Real services page instead of scanning: Cursor is the resumable,
// bounded-batch counterpart of Scanner, implemented by every structure
// and combinator, delivering ascending pages with an opaque resume token
// that pins no server-side state (tokens survive churn, restarts, and
// elastic resizes). A paginated feed endpoint looks like:
//
//	// First request: open a window and serve one page.
//	cur, err := csds.OpenCursor(s, 100, 200)
//	token, done := cur.Next(c, 50, func(k csds.Key, v csds.Value) bool {
//		... // up to 50 keys of [100, 200), ascending, one atomic batch
//		return true
//	})
//	// Later request: the client echoes the token back; resume from it.
//	cur, err = csds.ResumeCursor(s, token)
//	token, done = cur.Next(c, 50, appendPage)
//	... // until done; corrupt tokens error, they never misroute a page
//
// Multi-key requests have a batched path: Batcher is implemented by
// every structure and combinator, and amortizes synchronization across
// the keys of one call — composites group the batch by destination
// shard/stripe and cross each boundary once, ordered structures sort
// the batch and traverse once, and contended shards switch to a
// flat-combining fast path where one thread applies many threads'
// batches in a single lock acquisition. Results arrive through a
// per-key callback, in the caller's index order:
//
//	s.(csds.Batcher).MultiGet(c, keys, func(i int, v csds.Value, ok bool) {
//		... // result for keys[i]; ok=false marks a miss
//	})
//	s.(csds.Batcher).MultiPut(c, []csds.KV{{K: 1, V: 10}, {K: 2, V: 20}},
//		func(i int, inserted bool) { ... })
//
// The subdirectories of this module hold the experiment harness
// (internal/harness), the discrete-event multicore simulator
// (internal/sim), and the Section 6 birthday-paradox model
// (internal/birthday); cmd/figures regenerates every figure and table of
// the paper from any of the three engines.
package csds

import (
	"fmt"

	"csds/internal/core"
	"csds/internal/ebr"
	"csds/internal/queuestack"

	// Register every algorithm with the core registry, and the structure
	// combinators with the combinator registry.
	_ "csds/internal/bst"
	_ "csds/internal/combinator"
	_ "csds/internal/hashtable"
	_ "csds/internal/list"
	_ "csds/internal/skiplist"
)

// Core types, re-exported for downstream users (internal packages are not
// importable outside this module).
type (
	// Set is the search data structure interface: Get / Put / Remove.
	Set = core.Set
	// Ctx is the per-goroutine execution context.
	Ctx = core.Ctx
	// Options configures constructors (sizing, HTM elision, EBR domain).
	Options = core.Options
	// Key is the 64-bit key type.
	Key = core.Key
	// Value is the 64-bit value type.
	Value = core.Value
	// Info describes a registered algorithm.
	Info = core.Info
	// Ranger is the optional iteration extension of Set (quiesced use).
	Ranger = core.Ranger
	// Scanner is the optional linearizable range-scan extension of Set,
	// implemented by every structure and combinator in this module.
	Scanner = core.Scanner
	// Cursor is the optional paginated-iteration extension of Set
	// (resumable bounded batches), implemented by every structure and
	// combinator in this module.
	Cursor = core.Cursor
	// CursorToken is the decoded form of a pagination token.
	CursorToken = core.CursorToken
	// PageCursor is the pagination handle returned by OpenCursor and
	// ResumeCursor.
	PageCursor = core.PageCursor
	// Resizable is the optional online-repartitioning extension of Set,
	// implemented by elastic composites.
	Resizable = core.Resizable
	// Batcher is the optional batched-operation extension of Set
	// (MultiGet / MultiPut / MultiRemove with per-key callbacks),
	// implemented by every structure and combinator in this module.
	// Each batch is individually linearizable against point operations;
	// within a batch, elements apply in index order.
	Batcher = core.Batcher
	// KV is a key/value pair, the MultiPut element type.
	KV = core.KV
	// Queue is the FIFO interface (Section 7 structures).
	Queue = queuestack.Queue
	// Stack is the LIFO interface (Section 7 structures).
	Stack = queuestack.Stack
)

// NewCtx builds a self-contained per-goroutine context.
func NewCtx(id int) *Ctx { return core.NewCtx(id) }

// Algorithms lists every registered algorithm name.
func Algorithms() []string { return core.Names() }

// Combinators lists every registered structure combinator name; each can
// wrap any algorithm (or composite) via the comb(N,spec) grammar.
func Combinators() []string { return core.CombinatorNames() }

// Lookup finds a registered algorithm by name (e.g. "list/lazy").
func Lookup(name string) (Info, bool) { return core.Lookup(name) }

// New constructs an algorithm from a specification — a plain registered
// name or a composite such as "sharded(16,list/lazy)". Use Build to learn
// why a spec was rejected.
func New(name string, o Options) (Set, bool) {
	s, err := core.Build(name, o)
	return s, err == nil
}

// Build constructs an algorithm from a specification, reporting grammar
// and resolution errors.
func Build(spec string, o Options) (Set, error) { return core.Build(spec, o) }

// OpenCursor starts a paginated iteration over s's window [lo, hi):
// call Next for bounded ascending batches; each batch is individually
// linearizable and returns an opaque resume token.
func OpenCursor(s Set, lo, hi Key) (*PageCursor, error) { return core.OpenCursor(s, lo, hi) }

// ResumeCursor rebuilds a pagination handle from a wire token minted by
// a PageCursor over an equivalent structure — the "next page" entry
// point of a stateless service. Corrupt tokens are rejected.
func ResumeCursor(s Set, token string) (*PageCursor, error) { return core.ResumeCursor(s, token) }

// DecodeCursorToken parses a wire token into its window and position
// (diagnostics; Next and ResumeCursor handle tokens opaquely).
func DecodeCursorToken(token string) (CursorToken, error) { return core.DecodeCursorToken(token) }

// NewEBRDomain creates an epoch-based reclamation domain to share across
// structures (optional: Go's GC reclaims safely without one).
func NewEBRDomain() *ebr.Domain { return ebr.NewDomain() }

// mustNew constructs a registered algorithm and panics on a wiring bug —
// the names below are registered by this package's own imports, so
// failure is unreachable in a healthy build.
func mustNew(name string, o Options) Set {
	s, ok := New(name, o)
	if !ok {
		panic("csds: algorithm not registered: " + name)
	}
	return s
}

// NewLazyList returns the featured blocking linked list (lazy list).
func NewLazyList() Set { return mustNew("list/lazy", Options{}) }

// NewHarrisList returns the lock-free linked list.
func NewHarrisList() Set { return mustNew("list/harris", Options{}) }

// NewWaitFreeList returns the wait-free linked list.
func NewWaitFreeList() Set { return mustNew("list/waitfree", Options{}) }

// NewHerlihySkipList returns the featured blocking skip list, sized for
// expectedSize elements.
func NewHerlihySkipList(expectedSize int) Set {
	return mustNew("skiplist/herlihy", Options{ExpectedSize: expectedSize})
}

// NewLazyHashTable returns the featured blocking hash table with load
// factor 1 at expectedSize elements.
func NewLazyHashTable(expectedSize int) Set {
	return mustNew("hashtable/lazy", Options{ExpectedSize: expectedSize})
}

// NewBSTTK returns the featured blocking external binary search tree.
func NewBSTTK() Set { return mustNew("bst/tk", Options{}) }

// NewSharded hash-partitions the key space over shards independent
// instances of the inner specification (a registered name or a nested
// composite). The hash is of a key's aligned 64-key block, so
// neighbouring keys share a shard: point operations spread like any
// hash partition as soon as keys span more than a block, needing no
// domain hint, and short scans and cursor pages visit a few shards in
// key order instead of merging all of them. Errors report grammar or
// resolution problems in inner.
func NewSharded(shards int, inner string, o Options) (Set, error) {
	return core.Build(fmt.Sprintf("sharded(%d,%s)", shards, inner), o)
}

// NewStriped range-partitions the key space, in order, over stripes
// instances of the inner specification. Set o.KeySpan (or o.ExpectedSize,
// from which a 2*ExpectedSize span is derived — the paper's key-space
// convention) so stripes divide the domain your keys actually populate;
// keys outside the domain clamp to the end stripes.
func NewStriped(stripes int, inner string, o Options) (Set, error) {
	return core.Build(fmt.Sprintf("striped(%d,%s)", stripes, inner), o)
}

// NewReadCached wraps the inner specification with a bounded read-through
// cache of about capacity entries, invalidated on updates.
func NewReadCached(capacity int, inner string, o Options) (Set, error) {
	return core.Build(fmt.Sprintf("readcache(%d,%s)", capacity, inner), o)
}

// NewElastic hash-partitions the key space over width instances of the
// inner specification, with NewSharded's block-hashed routing (its
// scans always collect every shard, and its pages merge them) — but the
// returned set also implements Resizable: its width can be grown or
// shrunk online (s.(csds.Resizable).Resize(c, n)) while readers and
// writers keep running, so a deployment can track load instead of
// overprovisioning.
func NewElastic(width int, inner string, o Options) (Set, error) {
	return core.Build(fmt.Sprintf("elastic(%d,%s)", width, inner), o)
}

// NewQueue returns the standard lock-based FIFO queue (Section 7).
func NewQueue() Queue { return queuestack.NewTwoLockQueue() }

// NewLockFreeQueue returns the Michael–Scott lock-free queue.
func NewLockFreeQueue() Queue { return queuestack.NewMSQueue() }

// NewStack returns the single-lock LIFO stack (Section 7).
func NewStack() Stack { return queuestack.NewLockStack() }

// NewTreiberStack returns the lock-free Treiber stack.
func NewTreiberStack() Stack { return queuestack.NewTreiberStack() }
