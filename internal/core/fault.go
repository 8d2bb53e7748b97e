package core

// This file is the fault-injection and panic-containment layer of the
// engines. The paper's evaluation treats resource exhaustion as a
// first-class outcome (the "timeout" table entries), and Theorem 3.1
// guarantees the hybrid driver may always fall back to analyzing a callee
// top-down when no usable bottom-up summary exists — which makes *any*
// per-trigger failure (budget, panic, injected error) safely degradable.
// The FaultPlan below turns every such degradation path into a
// deterministic, on-demand event so the tests can walk all of them, and
// the containment helpers guarantee a panicking client surfaces as a
// wrapped Result.Err (or a per-trigger fallback) instead of crashing the
// process.

import (
	"cmp"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"swift/internal/ir"
)

// Failure sentinels of the containment layer, matched with errors.Is.
var (
	// ErrClientPanic indicates a client operation panicked; the panic was
	// recovered by the engine and converted into this error (engine-level)
	// or into a per-trigger BUFailed fallback (bottom-up workers).
	ErrClientPanic = errors.New("core: client operation panicked")
	// ErrClientFault indicates an injected client-operation failure (the
	// FaultErr kind). Real clients have no error returns, so the fault
	// layer models "the operation failed" as a panic carrying this error;
	// the containment layer surfaces it verbatim.
	ErrClientFault = errors.New("core: injected client fault")
	// ErrTraceMismatch indicates a replayed trace does not correspond to
	// the program, configuration or client behaviour of this run.
	ErrTraceMismatch = errors.New("core: trace does not match the run")
)

// FaultKind selects what an injected fault does to the client operation it
// fires on.
type FaultKind uint8

const (
	// FaultNone is the zero value; it never fires.
	FaultNone FaultKind = iota
	// FaultErr fails the operation: the run observes an error wrapping
	// ErrClientFault. Inside a bottom-up trigger this is a fatal worker
	// error (the run aborts with it); on the top-down path it becomes
	// Result.Err.
	FaultErr
	// FaultPanic panics with a non-error value, exercising the recover
	// paths: per-trigger panics degrade to a bounded retry and then a
	// BUFailed top-down fallback, engine-level panics become Result.Err
	// wrapping ErrClientPanic.
	FaultPanic
	// FaultSleep stalls the operation for Fault.Sleep, inducing wall-clock
	// deadline trips when Config.Timeout is armed.
	FaultSleep
	// FaultBudget declares the enclosing budget exhausted: inside a
	// bottom-up trigger the trigger falls back to top-down (BUFailed),
	// on the top-down path the run stops with ErrBudget — exactly the
	// paper's "did not finish" outcome, forced at one operation.
	FaultBudget
)

// String names the kind for messages and table output.
func (k FaultKind) String() string {
	switch k {
	case FaultErr:
		return "err"
	case FaultPanic:
		return "panic"
	case FaultSleep:
		return "sleep"
	case FaultBudget:
		return "budget"
	}
	return "none"
}

// Fault is one scheduled client-operation fault.
type Fault struct {
	Kind FaultKind
	// Sleep is the stall duration of a FaultSleep (default 1ms).
	Sleep time.Duration
}

// FaultPlan is a deterministic schedule of injected faults for one engine
// run. Engines arm it through Config.Fault: every client operation
// (Trans, RTrans, RComp, …) is counted by a single run-wide operation
// counter, and the plan decides per index whether a fault fires. For the
// deterministic engines the operation stream is identical on every run, so
// a plan pins a fault to one reproducible program point; under the
// asynchronous engine the indices workers observe depend on scheduling,
// which is fine for crashworthiness sweeps (the schedule is still seeded
// and bounded).
//
// The operation counter lives in the plan, so a plan must not be shared by
// two concurrent runs; reusing it across sequential runs continues the
// stream unless Reset is called. The zero plan injects nothing and merely
// counts — useful for sizing sweeps via OpCount.
type FaultPlan struct {
	// Ops schedules explicit faults by operation index (0-based).
	Ops map[int64]Fault
	// Every, with Seed and Kinds, arms a pseudo-random periodic schedule:
	// each operation index fires with probability 1/Every, with the kind
	// drawn from Kinds (default: FaultErr and FaultPanic alternating by
	// hash). Zero disables the periodic schedule.
	Every int64
	// Seed makes the periodic schedule reproducible.
	Seed uint64
	// Kinds are the fault kinds the periodic schedule draws from.
	Kinds []FaultKind
	// TriggerBudget forces ErrBudget for every bottom-up invocation whose
	// frontier contains a listed procedure — the "this trigger exhausts
	// its budget" outcome, keyed by procedure name so the synchronous and
	// asynchronous engines agree on which triggers fail.
	TriggerBudget map[string]bool

	n atomic.Int64
}

// SeededFaultPlan returns a periodic plan injecting roughly one fault per
// every operations, drawn deterministically from seed.
func SeededFaultPlan(seed uint64, every int64, kinds ...FaultKind) *FaultPlan {
	return &FaultPlan{Every: every, Seed: seed, Kinds: kinds}
}

// OpCount returns how many client operations the plan has observed since
// construction or the last Reset.
func (p *FaultPlan) OpCount() int64 { return p.n.Load() }

// Reset rewinds the operation counter so the plan can be reused for a
// fresh run.
func (p *FaultPlan) Reset() { p.n.Store(0) }

// Fork returns a plan with the same schedule (Ops, periodic parameters and
// TriggerBudget, all shared read-only) but a fresh operation counter, so
// concurrent runs — one per slice in RunSliced — can each count their own
// operation stream. Per-slice op indices therefore start at 0 in every
// slice: an Ops entry for index k fires at the k-th client operation of
// EACH slice, not of the merged run. Fork of nil is nil.
func (p *FaultPlan) Fork() *FaultPlan {
	if p == nil {
		return nil
	}
	return &FaultPlan{
		Ops:           p.Ops,
		Every:         p.Every,
		Seed:          p.Seed,
		Kinds:         p.Kinds,
		TriggerBudget: p.TriggerBudget,
	}
}

// splitmix64 is the SplitMix64 finalizer; cheap, stateless, and good
// enough to decorrelate consecutive operation indices.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fault decides whether a fault fires at operation index k.
func (p *FaultPlan) fault(k int64) (Fault, bool) {
	if f, ok := p.Ops[k]; ok && f.Kind != FaultNone {
		return f, true
	}
	if p.Every > 0 {
		h := splitmix64(p.Seed ^ uint64(k))
		if h%uint64(p.Every) == 0 {
			kinds := p.Kinds
			if len(kinds) == 0 {
				kinds = []FaultKind{FaultErr, FaultPanic}
			}
			return Fault{Kind: kinds[(h>>32)%uint64(len(kinds))]}, true
		}
	}
	return Fault{}, false
}

// triggerBudgetFault reports whether the plan forces budget exhaustion for
// a bottom-up invocation over frontier f, naming the matched procedure.
func (p *FaultPlan) triggerBudgetFault(f []string) (string, bool) {
	if p == nil || len(p.TriggerBudget) == 0 {
		return "", false
	}
	for _, name := range f {
		if p.TriggerBudget[name] {
			return name, true
		}
	}
	return "", false
}

// faultError is a panic payload carrying an error the containment layer
// surfaces verbatim (rather than wrapping as ErrClientPanic). The fault
// client uses it to model failed operations and forced budget exhaustion
// through the Client interface, which has no error returns.
type faultError struct{ err error }

// recoveredError converts a recovered panic value into the run's error.
func recoveredError(r any) error {
	if fe, ok := r.(faultError); ok {
		return fe.err
	}
	return fmt.Errorf("%w: %v", ErrClientPanic, r)
}

// contain is the engine entry points' deferred panic barrier: it converts
// an escaping panic — a client bug or an injected fault on the top-down
// path — into the run's error instead of crashing the process.
func contain(errp *error) {
	if r := recover(); r != nil {
		*errp = recoveredError(r)
	}
}

// effectiveClient wraps the client with the fault layer when a plan is
// armed. The wrapper intentionally does not forward the TransCompiler
// capability: compiled transfers would bypass operation counting, and a
// fault sweep must see every transfer application. The armed run therefore
// takes plain Trans, which the TransCompiler contract makes unobservable
// down to the interned state IDs.
func effectiveClient[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered](
	c Client[S, R, P], config Config,
) Client[S, R, P] {
	if config.Fault == nil {
		return c
	}
	return &faultClient[S, R, P]{inner: c, plan: config.Fault}
}

// faultClient intercepts every client operation, counts it against the
// plan's run-wide operation counter, and fires the scheduled fault (if
// any) before delegating. It adds no locking of its own — the counter is
// atomic — so it is exactly as concurrency-safe as the client it wraps,
// and it is always installed after Synchronized has done its work.
type faultClient[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	inner Client[S, R, P]
	plan  *FaultPlan
}

// op charges one operation and fires a scheduled fault. Faults are
// delivered as panics — the only failure channel the Client interface has
// — and the engines' containment converts them back into errors.
func (f *faultClient[S, R, P]) op(name string) {
	k := f.plan.n.Add(1) - 1
	ft, ok := f.plan.fault(k)
	if !ok {
		return
	}
	switch ft.Kind {
	case FaultSleep:
		d := ft.Sleep
		if d <= 0 {
			d = time.Millisecond
		}
		time.Sleep(d)
	case FaultErr:
		panic(faultError{fmt.Errorf("%w: %s at client op %d", ErrClientFault, name, k)})
	case FaultBudget:
		panic(faultError{fmt.Errorf("core: injected budget exhaustion: %s at client op %d: %w", name, k, ErrBudget)})
	case FaultPanic:
		panic(fmt.Sprintf("core: injected panic: %s at client op %d", name, k))
	}
}

func (f *faultClient[S, R, P]) Trans(c *ir.Prim, s S) []S {
	f.op("Trans")
	return f.inner.Trans(c, s)
}

func (f *faultClient[S, R, P]) Identity() R {
	f.op("Identity")
	return f.inner.Identity()
}

func (f *faultClient[S, R, P]) RTrans(c *ir.Prim, r R) []R {
	f.op("RTrans")
	return f.inner.RTrans(c, r)
}

func (f *faultClient[S, R, P]) RComp(r1, r2 R) []R {
	f.op("RComp")
	return f.inner.RComp(r1, r2)
}

func (f *faultClient[S, R, P]) Applies(r R, s S) bool {
	f.op("Applies")
	return f.inner.Applies(r, s)
}

func (f *faultClient[S, R, P]) Apply(r R, s S) []S {
	f.op("Apply")
	return f.inner.Apply(r, s)
}

func (f *faultClient[S, R, P]) PreOf(r R) P {
	f.op("PreOf")
	return f.inner.PreOf(r)
}

func (f *faultClient[S, R, P]) PreHolds(pre P, s S) bool {
	f.op("PreHolds")
	return f.inner.PreHolds(pre, s)
}

func (f *faultClient[S, R, P]) PreImplies(p, q P) bool {
	f.op("PreImplies")
	return f.inner.PreImplies(p, q)
}

func (f *faultClient[S, R, P]) WPre(r R, post P) []P {
	f.op("WPre")
	return f.inner.WPre(r, post)
}

func (f *faultClient[S, R, P]) Reduce(rels []R) []R {
	f.op("Reduce")
	return f.inner.Reduce(rels)
}

// safeRunBU is runBU behind a panic barrier: a client panic inside a
// bottom-up invocation becomes an error wrapping ErrClientPanic, which the
// hybrid drivers degrade to a bounded retry and then a BUFailed top-down
// fallback (Theorem 3.1 makes the fallback safe). Injected faultError
// payloads surface their carried error instead.
func safeRunBU[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered](
	client Client[S, R, P],
	prog *ir.Program,
	config Config,
	theta int,
	f []string,
	preEta map[string]RSet[R, P],
	rank map[string]multiset[S],
	stats *BUStats,
) (eta map[string]RSet[R, P], err error) {
	defer func() {
		if r := recover(); r != nil {
			eta, err = nil, recoveredError(r)
		}
	}()
	return runBU(client, prog, config, theta, f, preEta, rank, stats)
}

// panicRetryLimit bounds how many times a hybrid driver re-runs a trigger
// whose bottom-up invocation panicked before giving up and falling back to
// top-down analysis for it. One retry distinguishes transient faults (an
// injected one-shot fault, a data race the retry escapes) from a
// deterministic client bug, without risking unbounded re-execution.
const panicRetryLimit = 1
