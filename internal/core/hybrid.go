package core

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"swift/internal/ir"
)

// Analysis binds a client to a program, caching the program's control-flow
// graph so the three engines (top-down, bottom-up, hybrid) can be run and
// compared on the same input.
type Analysis[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	Client Client[S, R, P]
	Prog   *ir.Program
	CFG    *ir.CFG

	// rawView and compView are the two solver-facing traversal overlays of
	// CFG (see ir.RawView/ir.CompressedView), built lazily and shared by
	// every run on this Analysis. Which engines may use the compressed view
	// is a correctness question, not a tuning one — see tdView. compStruct
	// is the compressed view's loop-structure index for the sparse
	// scheduler, built with it. Pure graph structure, so one instance is
	// shared by every run, including concurrent sliced runs (RunSliceSet
	// pre-builds them).
	rawView    *ir.CFGView
	compView   *ir.CFGView
	compStruct *ir.StructIndex

	// Warm, when non-nil, is consulted before every run_bu invocation and
	// offered every deterministic outcome (see warm.go). Sliced runs do not
	// inherit it: RunSliced's per-slice analyses are built without it, as
	// slice clients produce summaries in a different ID space.
	Warm SummarySource[R, P]
}

// NewAnalysis validates the program, builds its CFG and returns an Analysis
// ready to run.
func NewAnalysis[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered](
	client Client[S, R, P], prog *ir.Program,
) (*Analysis[S, R, P], error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Analysis[S, R, P]{Client: client, Prog: prog, CFG: ir.BuildCFG(prog)}, nil
}

// raw returns the raw traversal view, building it on first use. Engine
// entry points run on the caller's goroutine, so no locking is needed.
func (a *Analysis[S, R, P]) raw() *ir.CFGView {
	if a.rawView == nil {
		a.rawView = ir.RawView(a.CFG)
	}
	return a.rawView
}

// tdView returns the traversal view for the order-insensitive solvers and
// its structure index. At completion, RunTD and RunBU's instantiation pass
// compute closure properties — fact sets, summary tables, entry
// multiplicities and the original-graph-unit counters are independent of
// worklist pop order — so they run the sparse scheduler over the
// compressed superblock view. The hybrid engines must NOT use either:
// their trigger decisions sample EntrySeen mid-run, where pop order is
// observable (see DESIGN.md), so they always take the raw view and the
// dense FIFO. The test-only reference path gets the same (nil index).
func (a *Analysis[S, R, P]) tdView(config Config) (*ir.CFGView, *ir.StructIndex) {
	if config.solver == pathReference {
		return a.raw(), nil
	}
	if a.compView == nil {
		a.compView = ir.CompressedView(a.CFG)
		a.compStruct = ir.BuildStructIndex(a.compView)
	}
	return a.compView, a.compStruct
}

// Result is the outcome of one engine run.
type Result[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	// Engine names the solver that produced the result, one of Engines.
	Engine string
	// TD holds the tabulation output (path edges, summaries, incoming-state
	// multisets). For the bottom-up baseline it holds the instantiation
	// pass's output.
	TD *TDResult[S]
	// BU maps procedures to their bottom-up summaries (empty for pure TD).
	BU map[string]RSet[R, P]
	// BUFailed marks procedures whose bottom-up analysis hit its budget in
	// hybrid mode (the driver falls back to top-down for them).
	BUFailed map[string]bool
	// Triggered lists the trigger procedures whose run_bu completed
	// successfully, sorted and deduplicated. Both hybrid engines produce
	// it in this form, so table code can diff the field across engines.
	Triggered []string
	// BUStats aggregates bottom-up work counters.
	BUStats BUStats
	// CallsViaBU and CallsViaTD count call-site events answered by
	// bottom-up summaries versus handled by tabulation. Of the CallsViaTD
	// events in hybrid mode, CallsInSigma were fallbacks forced by the
	// incoming state being in the summary's ignored set Σ (the rest had no
	// summary yet).
	CallsViaBU   int
	CallsViaTD   int
	CallsInSigma int
	// Resummarized counts adaptive summary recomputations (see
	// Config.Resummarize).
	Resummarized int
	// ClientPanics counts client panics contained inside bottom-up
	// triggers (each is retried up to panicRetryLimit times, then the
	// trigger degrades to a BUFailed top-down fallback). Engine-level
	// panics are not counted here; they surface in Err.
	ClientPanics int
	// Elapsed is wall-clock duration of the run.
	Elapsed time.Duration
	// Err is nil if the run completed, or a wrapped
	// ErrBudget/ErrDeadline/ErrClientPanic/ErrClientFault if the engine
	// did not finish (the paper's "timeout" entries, plus the fault
	// model's containment outcomes). Match with errors.Is.
	Err error
}

// Completed reports whether the engine finished within its budgets.
func (r *Result[S, R, P]) Completed() bool { return r.Err == nil }

// WorkUnits returns a machine-independent cost measure for the run: the sum
// of the solvers' step and materialization counters. For the deterministic
// engines (td, bu, swift) it is identical across repeated runs and across
// hosts, which is what lets the benchmark harness render comparable cost
// columns regardless of scheduling; wall-clock stays in Elapsed. For
// swift-async the counters are timing-dependent, so WorkUnits is too.
func (r *Result[S, R, P]) WorkUnits() int {
	n := r.BUStats.Steps + r.BUStats.Relations
	if r.TD != nil {
		n += r.TD.Steps + r.TD.NumPathEdges
	}
	return n
}

// TDSummaryTotal returns the total number of top-down summaries.
func (r *Result[S, R, P]) TDSummaryTotal() int {
	if r.TD == nil {
		return 0
	}
	return r.TD.NumSummaries
}

// BUSummaryTotal returns the total number of bottom-up summaries (relational
// cases across all procedures).
func (r *Result[S, R, P]) BUSummaryTotal() int {
	n := 0
	for _, rs := range r.BU {
		n += rs.Size()
	}
	return n
}

// ExitStates returns the analysis result at the exit of the entry procedure
// for the given initial state: the abstract states the whole program may end
// in. All three engines agree on this set when they complete (Theorem 3.1).
func (r *Result[S, R, P]) ExitStates(entry string, initial S) []S {
	if r.TD == nil {
		return nil
	}
	return r.TD.Summaries[entry][initial]
}

// RunTD runs the conventional top-down baseline.
func (a *Analysis[S, R, P]) RunTD(initial S, config Config) *Result[S, R, P] {
	start := time.Now()
	client := effectiveClient(a.Client, config)
	view, sidx := a.tdView(config)
	t := newTDSolver(client, view, config, nil, sidx)
	res := &Result[S, R, P]{Engine: "td", TD: t.res}
	err := func() (err error) {
		defer contain(&err)
		if err := t.seed(initial); err != nil {
			return err
		}
		return t.run()
	}()
	res.Elapsed = time.Since(start)
	res.Err = err
	return res
}

// RunBU runs the conventional bottom-up baseline: relational summaries with
// no pruning for every procedure reachable from the entry, followed by a
// top-down instantiation pass that answers every call from those summaries.
func (a *Analysis[S, R, P]) RunBU(initial S, config Config) *Result[S, R, P] {
	start := time.Now()
	res := &Result[S, R, P]{Engine: "bu", BU: map[string]RSet[R, P]{}}
	client := effectiveClient(a.Client, config)
	err := func() (err error) {
		defer contain(&err)
		f := a.Prog.Reachable(a.Prog.Entry)
		// The whole bottom-up phase is one run_bu invocation over the entry
		// closure, so it warm-starts as a single outcome keyed on the entry.
		// Failed outcomes are not reused here: a budget abort is this
		// engine's terminal result, so reproducing it saves nothing and
		// would fabricate BUStats-free failures.
		var eta map[string]RSet[R, P]
		if a.Warm != nil {
			if out, ok := a.Warm.Lookup(a.Prog.Entry, f); ok && !out.Failed {
				eta = out.Eta
			}
		}
		if eta == nil {
			eta, err = safeRunBU(client, a.Prog, config, Unlimited, f, nil, nil, &res.BUStats)
			if err != nil {
				return err
			}
			publishOutcome(a.Warm, a.Prog.Entry, f, eta, nil)
		}
		res.BU = eta
		inst := &buInstantiator[S, R, P]{client: client, eta: eta, res: res}
		view, sidx := a.tdView(config)
		t := newTDSolver(client, view, config, inst, sidx)
		res.TD = t.res
		if err := t.seed(initial); err != nil {
			return err
		}
		return t.run()
	}()
	res.Elapsed = time.Since(start)
	res.Err = err
	return res
}

// buInstantiator answers every call from precomputed bottom-up summaries.
type buInstantiator[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	client Client[S, R, P]
	eta    map[string]RSet[R, P]
	res    *Result[S, R, P]
}

func (b *buInstantiator[S, R, P]) beforeCall(callee string, s S) ([]S, bool, error) {
	rs, ok := b.eta[callee]
	if !ok {
		return nil, false, nil
	}
	b.res.CallsViaBU++
	return ApplySummary(b.client, rs, s), true, nil
}

func (b *buInstantiator[S, R, P]) afterCall(string, S) error { return nil }

// RunSwift runs Algorithm 1: top-down tabulation with bottom-up
// summarization triggered at threshold k and pruned at width θ. Every
// trigger's run_bu runs inline on the tabulation's goroutine, so the run
// is deterministic.
func (a *Analysis[S, R, P]) RunSwift(initial S, config Config) *Result[S, R, P] {
	return a.runHybrid("swift", initial, config, false)
}

// runHybrid is the one Algorithm 1 driver behind RunSwift and
// RunSwiftAsync. The engines differ only in the executor that runs a
// trigger's run_bu: inline (swift), on worker goroutines (live
// swift-async), or inline at the spawn points of a recorded trace
// (swift-async with Config.ReplayTrace).
func (a *Analysis[S, R, P]) runHybrid(engine string, initial S, config Config, async bool) *Result[S, R, P] {
	start := time.Now()
	res := &Result[S, R, P]{
		Engine:   engine,
		BU:       map[string]RSet[R, P]{},
		BUFailed: map[string]bool{},
	}
	h := &hybrid[S, R, P]{
		a: a, client: effectiveClient(a.Client, config), config: config, res: res,
		watch:    map[string]*watchRec{},
		pending:  map[string]bool{},
		panicked: map[string]int{},
		errs:     map[string]error{},
	}
	switch {
	case !async:
	case config.ReplayTrace != nil:
		if err := config.ReplayTrace.validate(a.Prog.Entry, config); err != nil {
			res.Elapsed = time.Since(start)
			res.Err = err
			return res
		}
		h.replay = &replayer[S, R, P]{trace: config.ReplayTrace, stash: map[string]completion[S, R, P]{}}
	default:
		h.pool = &workerPool[S, R, P]{busy: map[string]bool{}}
		if config.RecordTrace != nil {
			h.rec = config.RecordTrace
			h.rec.reset(a.Prog.Entry, config)
		}
	}
	// The hybrid engines step the raw view: trigger timing depends on pop
	// order, which compression would change (see tdView). They still get
	// the compiled transfers and the transfer memo, whose hits replay the
	// raw transfer output bit-for-bit.
	// For the same reason the sparse scheduler stays off here (nil index):
	// reordering pops would move the EntrySeen samples triggers rank by.
	t := newTDSolver(h.client, a.raw(), config, h, nil)
	res.TD = t.res
	err := func() (err error) {
		defer contain(&err)
		if err := t.seed(initial); err != nil {
			return err
		}
		if err := t.run(); err != nil {
			return err
		}
		return h.drain()
	}()
	if h.pool != nil {
		// Wait out every worker — no goroutine outlives the run — then
		// absorb whatever completions they posted (post-abort ones are
		// discarded except for their counters and fatal errors).
		h.pool.wg.Wait()
		h.drainQueue()
	}
	res.Triggered = newSortedSet(res.Triggered)
	if errors.Is(err, errWorkerFailed) {
		err = nil // replaced by the joined worker errors below
	}
	if werr := h.joinedErrs(); werr != nil {
		err = errors.Join(err, werr)
	}
	res.Elapsed = time.Since(start)
	res.Err = err
	return res
}

// hybrid is the call interceptor implementing the SWIFT-specific parts of
// Algorithm 1 (lines 12–19) for every executor. Its fields are owned by
// the tabulation's goroutine; the goroutine executor's workers only see
// the snapshots they are handed and the completion queue.
type hybrid[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	a *Analysis[S, R, P]
	// client is the effective client of this run (the analysis client, or
	// its fault wrapper when Config.Fault is armed).
	client Client[S, R, P]
	config Config
	res    *Result[S, R, P]
	// panicked counts contained run_bu panics per trigger, bounding retries
	// at panicRetryLimit before the trigger degrades to BUFailed.
	panicked map[string]int
	// watch tracks per-procedure Σ-fallbacks to drive adaptive
	// re-summarization (Config.Resummarize).
	watch map[string]*watchRec
	// pending holds triggers that fired but could not start: some frontier
	// procedure had no top-down incoming state yet to rank by (Section 4),
	// the frontier overlapped an in-flight worker, or a contained panic
	// earned a retry on a worker. Postponed means deferred, not dropped:
	// the driver retries them periodically and drains them at the end.
	pending map[string]bool
	// retryTick throttles pending retries.
	retryTick int
	// errs collects fatal outcomes of the goroutine and replay executors
	// by trigger; joinedErrs aggregates them in sorted-trigger order, so
	// concurrent failures aggregate deterministically. aborted is set with
	// the first one: no further trigger starts and later outcomes are
	// discarded. The inline executor returns a fatal error directly.
	errs    map[string]error
	aborted bool

	// seq counts call events for the goroutine and replay executors; it
	// increments at the start of every beforeCall, so trace events
	// recorded while handling one call event all carry that event's
	// ordinal (see trace.go). rec is the trace being recorded, nil when not
	// recording.
	seq int
	rec *Trace
	// pool is the goroutine executor (live swift-async) and replay the
	// replay executor (swift-async with Config.ReplayTrace). With both nil
	// the executor is inline (swift).
	pool   *workerPool[S, R, P]
	replay *replayer[S, R, P]
}

// watchRec tracks how useful a procedure's bottom-up summary has been.
type watchRec struct {
	fallbacks int // Σ-fallbacks since the last (re-)summarization
	redone    int // re-summarizations performed
	limit     int // fallback budget before the next re-summarization
}

// errWorkerFailed is the internal abort sentinel the interceptor returns
// to stop the tabulation once a fatal outcome of the goroutine or replay
// executor has been applied. runHybrid strips it and substitutes the
// joined per-trigger errors; it never escapes to callers.
var errWorkerFailed = errors.New("core: async worker failed")

// beforeCall applies a bottom-up summary when one exists and the incoming
// state is not in its ignored set Σ (line 12 of Algorithm 1); Theorem 3.1
// guarantees the result equals re-analyzing the callee top-down. The
// goroutine and replay executors first make visible the outcomes that
// finished since the last call event.
func (h *hybrid[S, R, P]) beforeCall(callee string, s S) ([]S, bool, error) {
	switch {
	case h.pool != nil:
		h.seq++
		h.drainQueue()
	case h.replay != nil:
		h.seq++
		if err := h.replayOutcomesAt(); err != nil {
			return nil, false, err
		}
	}
	if h.aborted {
		return nil, false, errWorkerFailed
	}
	rs, ok := h.res.BU[callee]
	if !ok {
		return nil, false, nil
	}
	if Ignores(h.client, rs, s) {
		h.res.CallsInSigma++
		if err := h.noteFallback(callee); err != nil {
			return nil, false, err
		}
		return nil, false, nil
	}
	results := ApplySummary(h.client, rs, s)
	if len(results) == 0 {
		// The commands of the language are total, so a correct client's
		// summary relates every non-ignored state to at least one output
		// (Theorem 3.1). Guard against client bugs by re-analyzing
		// top-down instead of silently dropping the state.
		return nil, false, nil
	}
	h.res.CallsViaBU++
	return results, true, nil
}

// noteFallback records a Σ-fallback and, once the summary has proven
// ineffective often enough, recomputes it against the current (much larger)
// incoming-state sample. RunSwiftAsync clears Config.Resummarize, so this
// only ever runs inline.
func (h *hybrid[S, R, P]) noteFallback(callee string) error {
	if h.config.Resummarize <= 0 {
		return nil
	}
	w := h.watch[callee]
	if w == nil {
		w = &watchRec{limit: 8 * (h.config.K + 1)}
		h.watch[callee] = w
	}
	w.fallbacks++
	if w.redone >= h.config.Resummarize || w.fallbacks < w.limit {
		return nil
	}
	w.redone++
	w.fallbacks = 0
	w.limit *= 4
	old := h.res.BU[callee]
	delete(h.res.BU, callee)
	var stats BUStats
	eta, err := safeRunBU(
		h.client, h.a.Prog, h.config, h.config.Theta,
		[]string{callee}, h.res.BU, h.res.TD.EntrySeen, &stats,
	)
	h.res.BUStats.add(stats)
	if errors.Is(err, ErrClientPanic) {
		// A panicking recomputation is treated like a blown budget: keep the
		// old (still sound) summary and move on.
		h.res.ClientPanics++
		h.res.BU[callee] = old
		return nil
	}
	if errors.Is(err, ErrBudget) {
		h.res.BU[callee] = old
		return nil
	}
	if err != nil {
		return err
	}
	h.res.BU[callee] = eta[callee]
	h.res.Resummarized++
	return nil
}

// afterCall checks the trigger condition (line 17): once the callee has more
// than k distinct incoming states and no bottom-up summary yet, run the
// pruned bottom-up analysis on all procedures reachable from it. Postponed
// triggers are retried every 64th call event: a procedure's calls often
// arrive in a burst before its callees have any incoming states to rank
// by, or while an overlapping worker is still running. Under replay the
// trace dictates the schedule instead: this call event's recorded spawns
// are consumed and no trigger condition is evaluated.
func (h *hybrid[S, R, P]) afterCall(callee string, s S) error {
	h.res.CallsViaTD++
	if h.aborted {
		return errWorkerFailed
	}
	if h.replay != nil {
		return h.replaySpawnsAt()
	}
	if h.config.K == Unlimited {
		return nil
	}
	if h.res.TD.EntrySeen[callee].distinct() > h.config.K {
		if _, err := h.try(callee, false); err != nil {
			return err
		}
	}
	h.retryTick++
	if h.retryTick&0x3f == 0 && len(h.pending) > 0 {
		if _, err := h.tryPending(false); err != nil {
			return err
		}
	}
	return nil
}

// tryPending tries every postponed trigger once, in sorted order, and
// reports whether any of them started.
func (h *hybrid[S, R, P]) tryPending(force bool) (bool, error) {
	started := false
	for _, f := range newSortedSet(keysOf(h.pending)) {
		ok, err := h.try(f, force)
		if err != nil {
			return started, err
		}
		started = started || ok
	}
	return started, nil
}

// drain is the final flush of postponed triggers, run after the top-down
// worklist empties — without it, triggers postponed inside the last retry
// window would be silently dropped and the run would under-summarize. It
// runs in waves: wait for in-flight workers (their completion clears busy
// overlaps and may install summaries that shrink other frontiers), retry
// everything pending, and if nothing could start force the remainder.
// Their unranked frontier procedures were never reached top-down; the
// pruning operator handles absent ranking data by keeping the first θ
// relations in canonical order. A forced trigger whose procedure an
// earlier one already summarized is dropped, not re-run on an empty
// frontier. Under replay the drain is the trace's tail instead.
func (h *hybrid[S, R, P]) drain() error {
	// One seq bump for the whole drain phase: its events sort after every
	// call event's, and replay processes them in list order.
	h.seq++
	if h.replay != nil {
		return h.replayTail()
	}
	for {
		if h.pool != nil {
			h.pool.wg.Wait()
			h.drainQueue()
		}
		if h.aborted {
			return errWorkerFailed
		}
		if len(h.pending) == 0 {
			return nil
		}
		started, err := h.tryPending(false)
		if err != nil {
			return err
		}
		if !started {
			// With nothing in flight, the first forced trigger always
			// starts, so every wave makes progress and the loop terminates.
			if _, err := h.tryPending(true); err != nil {
				return err
			}
		}
	}
}

func keysOf[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// try starts run_bu(Γ, θ, f, bu) for trigger f with the paper's two
// implementation refinements (Section 4): procedures that already have
// summaries are reused rather than recomputed, and triggering is
// postponed until every procedure to be analyzed has at least one
// top-down incoming state (otherwise the pruning operator has no data to
// rank by). force skips the postpone check; the final drain uses it for
// frontiers the top-down analysis never completes. Triggers already
// summarized or failed are dropped. try reports whether run_bu started;
// the inline executor has also applied its outcome by then.
func (h *hybrid[S, R, P]) try(f string, force bool) (bool, error) {
	if h.aborted {
		return false, nil
	}
	if _, done := h.res.BU[f]; done || h.res.BUFailed[f] {
		delete(h.pending, f)
		return false, nil
	}
	frontier := h.frontier(f)
	if !force {
		for _, g := range frontier {
			if h.res.TD.EntrySeen[g].distinct() == 0 {
				h.pending[f] = true // postpone: retried once g has data
				return false, nil
			}
		}
	}
	if h.pool != nil && !h.spawn(f, frontier, force) {
		h.pending[f] = true // an in-flight worker covers part of the frontier
		return false, nil
	}
	delete(h.pending, f)
	for h.pool == nil {
		// Inline: a contained panic is retried at once, on the same frontier.
		retry, err := h.apply(h.runBU(f, frontier, h.res.BU, h.res.TD.EntrySeen))
		if err != nil || !retry {
			return true, err
		}
	}
	return true, nil
}

// frontier returns the procedures reachable from f by call chains, not
// expanding through procedures that already have bottom-up summaries (they
// are reused via η), sorted.
func (h *hybrid[S, R, P]) frontier(f string) []string {
	seen := map[string]bool{}
	var out []string
	var visit func(string)
	visit = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		if _, done := h.res.BU[name]; done {
			return
		}
		proc, ok := h.a.Prog.Procs[name]
		if !ok {
			return
		}
		out = append(out, name)
		for _, callee := range ir.Callees(proc.Body) {
			visit(callee)
		}
	}
	visit(f)
	return newSortedSet(out)
}

// completion is one finished run_bu invocation, as every executor hands
// it to apply.
type completion[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	trigger  string
	frontier []string
	eta      map[string]RSet[R, P]
	stats    BUStats
	err      error
}

// runBU runs trigger f's bottom-up analysis over frontier against the
// summaries eta and the incoming-state sample rank (the live engine state,
// or a worker's snapshots of it). Warm-start sits exactly where run_bu
// would start, after the postpone check, so a warm run makes the same
// scheduling decisions as the cold run that published the outcome — the
// prerequisite for byte-identical replays (see warm.go and
// internal/driver). Each invocation gets the full MaxRelations/MaxBUSteps
// budget from the config (counters local to the completion, aggregated
// by apply). It reads only immutable engine state, so workers call it.
func (h *hybrid[S, R, P]) runBU(
	f string, frontier []string, eta map[string]RSet[R, P], rank map[string]multiset[S],
) completion[S, R, P] {
	c := completion[S, R, P]{trigger: f, frontier: frontier}
	if warm := h.a.Warm; warm != nil {
		if out, ok := warm.Lookup(f, frontier); ok {
			if out.Failed {
				c.err = errCachedBudget()
			} else {
				c.eta = out.Eta
			}
			return c
		}
	}
	c.eta, c.err = safeRunBU(h.client, h.a.Prog, h.config, h.config.Theta, frontier, eta, rank, &c.stats)
	publishOutcome(h.a.Warm, f, frontier, c.eta, c.err)
	return c
}

// apply is where every run_bu outcome becomes engine state: summaries
// install, budget exhaustion degrades to a top-down fallback, contained
// panics earn a bounded retry (reported as retry) and then degrade too
// (Theorem 3.1 makes both fallbacks safe), and anything else is fatal and
// returned. Once the run is aborting, outcomes are discarded — nothing is
// installed or recorded — except for their counters and fatal errors.
func (h *hybrid[S, R, P]) apply(c completion[S, R, P]) (retry bool, fatal error) {
	h.res.BUStats.add(c.stats)
	panicked := errors.Is(c.err, ErrClientPanic)
	failed := panicked || errors.Is(c.err, ErrBudget)
	switch {
	case h.aborted:
		if c.err != nil && !failed {
			return false, c.err
		}
		return false, nil
	case c.err == nil:
		for name, rs := range c.eta {
			h.res.BU[name] = rs
		}
		h.res.Triggered = append(h.res.Triggered, c.trigger)
		h.record(TraceInstall, c.trigger, false)
		return false, nil
	case panicked:
		h.res.ClientPanics++
		h.panicked[c.trigger]++
		if h.panicked[c.trigger] <= panicRetryLimit {
			return true, nil
		}
	}
	h.record(TraceFail, c.trigger, false)
	if failed {
		h.res.BUFailed[c.trigger] = true
		return false, nil
	}
	return false, c.err
}

// abort records a fatal outcome of the goroutine or replay executor and
// stops the run at the next call event.
func (h *hybrid[S, R, P]) abort(trigger string, err error) {
	h.errs[trigger] = errors.Join(h.errs[trigger], err)
	h.aborted = true
}

// joinedErrs joins the fatal outcomes in sorted-trigger order: a
// deterministic aggregate no matter in which order the workers crossed
// the finish line.
func (h *hybrid[S, R, P]) joinedErrs() error {
	if len(h.errs) == 0 {
		return nil
	}
	joined := make([]error, 0, len(h.errs))
	for _, name := range newSortedSet(keysOf(h.errs)) {
		joined = append(joined, fmt.Errorf("trigger %s: %w", name, h.errs[name]))
	}
	return errors.Join(joined...)
}

// record appends a trace event at the current call-event ordinal when
// recording is armed.
func (h *hybrid[S, R, P]) record(kind TraceEventKind, trigger string, forced bool) {
	if h.rec != nil {
		h.rec.add(h.seq, kind, trigger, forced)
	}
}
