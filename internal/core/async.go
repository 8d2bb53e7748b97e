package core

import (
	"cmp"
	"maps"
	"sync"

	"swift/internal/ir"
)

// This file holds the goroutine executor of the hybrid driver — the
// parallelization sketched in the paper's Section 7: "whenever a
// bottom-up summary is to be computed, [SWIFT] spawns a new thread to do
// this bottom-up analysis, and itself continues the top-down analysis" —
// plus the client locking it needs. Use RunSwiftAsync with a Synchronized
// client. The trigger decision, outcome handling and drain are the ones
// RunSwift uses (hybrid.go); only where run_bu runs differs.
//
// Asynchronous summarization preserves correctness — a summary is only
// consulted after it is fully installed, and Theorem 3.1 applies to
// whatever summaries exist at each call event — but a live run is not
// deterministic: how many call events are answered from summaries depends
// on when triggers finish, so counters (and therefore summary counts) vary
// run to run. The final abstract states still coincide with the top-down
// analysis. Config.RecordTrace captures one run's schedule and
// Config.ReplayTrace re-executes it deterministically with the replay
// executor; see trace.go.
//
// Concurrency structure: workers never touch the engine's scheduling
// state. A worker runs one bottom-up invocation on snapshots taken at
// spawn time and posts its completion to a queue; the main goroutine
// drains the queue at the start of each call event (and between drain
// waves), so every install, failure, retry and abort decision is taken on
// the main goroutine — which is exactly what makes the schedule
// recordable as a stream of main-goroutine-relative events.

// ConcurrentClient marks a Client implementation as safe for concurrent
// use by any number of goroutines without external locking — typically
// because its interning tables are internally sharded (internal/typestate)
// or because it keeps no mutable state at all (internal/killgen).
// Synchronized returns marked clients unchanged, so their operations run
// lock-free from the engine's point of view and mutating traffic contends
// only on whatever internal striping the client provides.
type ConcurrentClient interface {
	// ConcurrentClient is a marker; implementations assert thread safety.
	ConcurrentClient()
}

// Synchronized makes a client safe to share between the top-down solver
// (main goroutine) and asynchronous bottom-up runs (worker goroutines).
//
// Clients that declare themselves concurrency-safe via the
// ConcurrentClient marker are returned unchanged: both in-tree clients
// qualify (typestate's interners are sharded with per-stripe locks;
// killgen is stateless after construction), so no engine-level lock is
// taken on any of their operations.
//
// Other clients are wrapped with a read/write-split lock: operations that
// only consult already-interned data — Applies, PreHolds, PreImplies,
// PreOf and Identity — take a read lock and run concurrently across
// workers, while operations that may intern new states, relations or
// formulas — Trans, RTrans, RComp, Apply, WPre and Reduce — take the
// write lock. Applies and the precondition queries dominate the bottom-up
// solver's inner loops (prune ranks every relation against every sampled
// state; clean checks every relation against every Sigma member), so the
// split turns the hottest client traffic into shared-access reads instead
// of serializing everything behind one mutex.
//
// Contract for wrapped clients: Applies, PreHolds, PreImplies, PreOf and
// Identity must not mutate client state. Clients whose read operations
// memoize internally must do their own locking — or do it properly and
// implement ConcurrentClient.
func Synchronized[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered](c Client[S, R, P]) Client[S, R, P] {
	if _, ok := any(c).(ConcurrentClient); ok {
		return c
	}
	return &lockedClient[S, R, P]{inner: c}
}

// lockedClient applies the read/write lock split described at Synchronized.
type lockedClient[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	mu    sync.RWMutex
	inner Client[S, R, P]
}

func (l *lockedClient[S, R, P]) Trans(c *ir.Prim, s S) []S {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Trans(c, s)
}

func (l *lockedClient[S, R, P]) Identity() R {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.Identity()
}

func (l *lockedClient[S, R, P]) RTrans(c *ir.Prim, r R) []R {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.RTrans(c, r)
}

func (l *lockedClient[S, R, P]) RComp(r1, r2 R) []R {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.RComp(r1, r2)
}

func (l *lockedClient[S, R, P]) Applies(r R, s S) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.Applies(r, s)
}

func (l *lockedClient[S, R, P]) Apply(r R, s S) []S {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Apply(r, s)
}

func (l *lockedClient[S, R, P]) PreOf(r R) P {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.PreOf(r)
}

func (l *lockedClient[S, R, P]) PreHolds(pre P, s S) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.PreHolds(pre, s)
}

func (l *lockedClient[S, R, P]) PreImplies(p, q P) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.inner.PreImplies(p, q)
}

func (l *lockedClient[S, R, P]) WPre(r R, post P) []P {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.WPre(r, post)
}

// Reduce is grouped with the mutators even though the in-tree clients
// implement it read-only: its contract allows arbitrary subsumption
// reasoning, which a client may well memoize.
func (l *lockedClient[S, R, P]) Reduce(rels []R) []R {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Reduce(rels)
}

// add accumulates worker-local counters into an aggregate.
func (s *BUStats) add(o BUStats) {
	s.Relations += o.Relations
	s.Steps += o.Steps
	s.Rounds += o.Rounds
}

// snapshotEntrySeen deep-copies the incoming-state multisets so the worker
// ranks against a stable sample while the top-down analysis keeps
// mutating the live map.
func snapshotEntrySeen[S cmp.Ordered](src map[string]multiset[S]) map[string]multiset[S] {
	out := make(map[string]multiset[S], len(src))
	for proc, m := range src {
		out[proc] = maps.Clone(m)
	}
	return out
}

// workerPool is the goroutine executor's state. The completion queue and
// the WaitGroup that guarantees no worker outlives the run are shared with
// the workers; busy is owned by the main goroutine.
type workerPool[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	mu   sync.Mutex
	done []completion[S, R, P]
	wg   sync.WaitGroup
	// busy marks every procedure covered by some in-flight worker's
	// frontier, not just its trigger: two triggers whose frontiers overlap
	// would otherwise summarize the shared procedures twice concurrently,
	// wasting budget and racing on installation order. Non-overlapping
	// triggers proceed concurrently.
	busy map[string]bool
}

// post enqueues a completion; called from worker goroutines.
func (p *workerPool[S, R, P]) post(c completion[S, R, P]) {
	p.mu.Lock()
	p.done = append(p.done, c)
	p.mu.Unlock()
}

// take removes and returns all queued completions, in posting order.
func (p *workerPool[S, R, P]) take() []completion[S, R, P] {
	p.mu.Lock()
	out := p.done
	p.done = nil
	p.mu.Unlock()
	return out
}

// spawn starts trigger f's run_bu on a worker goroutine unless its
// frontier overlaps an in-flight worker's. Main goroutine only.
func (h *hybrid[S, R, P]) spawn(f string, frontier []string, force bool) bool {
	p := h.pool
	for _, g := range frontier {
		if p.busy[g] {
			return false
		}
	}
	for _, g := range frontier {
		p.busy[g] = true
	}
	// Snapshot the worker's inputs: it must not read engine state the main
	// goroutine keeps mutating. Warm-start is consulted inside the worker
	// (runBU), not here: a synchronous hit would record spawn and install
	// at the same call event, violating the replay cursor's invariant that
	// installs become visible at a later event than their spawn.
	eta := maps.Clone(h.res.BU)
	rank := snapshotEntrySeen(h.res.TD.EntrySeen)
	h.record(TraceSpawn, f, force)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		// safeRunBU contains client panics inside the worker; whatever
		// happens, exactly one completion is posted and Done is called, so
		// the drain never deadlocks on a crashed worker.
		p.post(h.runBU(f, frontier, eta, rank))
	}()
	return true
}

// drainQueue applies every queued worker completion, in posting order.
// Main goroutine only.
func (h *hybrid[S, R, P]) drainQueue() {
	for _, c := range h.pool.take() {
		for _, g := range c.frontier {
			delete(h.pool.busy, g)
		}
		retry, err := h.apply(c)
		if err != nil {
			h.abort(c.trigger, err)
		}
		if retry {
			// Bounded retry: park the trigger; the periodic retry or the
			// final drain respawns it with a fresh budget.
			h.pending[c.trigger] = true
		}
	}
}

// RunSwiftAsync runs Algorithm 1 with asynchronous bottom-up triggers: each
// run_bu executes on its own goroutine while the top-down analysis
// continues, per the parallelization sketch of the paper's Section 7.
// Workers whose trigger frontiers do not overlap run concurrently with each
// other as well as with the tabulation. The client must be safe for
// concurrent use — wrap it with Synchronized. Results coincide with
// RunSwift/RunTD states-wise, but summary-usage counters are
// timing-dependent unless the run replays a recorded trace
// (Config.RecordTrace / Config.ReplayTrace; see trace.go). Adaptive
// re-summarization (Config.Resummarize) is RunSwift-only and ignored here.
//
// No goroutine outlives the call: every worker is awaited before the
// result is assembled, whether the run completed, aborted on an error, or
// contained a panic.
func (a *Analysis[S, R, P]) RunSwiftAsync(initial S, config Config) *Result[S, R, P] {
	config.Resummarize = 0
	return a.runHybrid("swift-async", initial, config, true)
}
