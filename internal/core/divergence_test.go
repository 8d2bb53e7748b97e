package core_test

// Tests pinning RunSwift and RunSwiftAsync to the same observable
// behaviour: worker errors must surface as Result.Err in both engines,
// bottom-up budgets are per trigger in both, and TestHybridEnginesAgree
// checks both engines (and a replay) against each other on every small
// fixture.

import (
	"errors"
	"maps"
	"runtime"
	"slices"
	"testing"
	"time"

	"swift/internal/core"
	"swift/internal/ir"
	"swift/internal/killgen"
)

// slowClient delays every bottom-up transfer so a run_bu invocation blows
// the wall-clock deadline while the top-down analysis (which never calls
// RTrans) stays fast. It poisons only the workers: the error every engine
// must surface is the deadline the bottom-up side hits.
type slowClient struct {
	core.Client[string, string, string]
	delay time.Duration
}

func (s *slowClient) RTrans(c *ir.Prim, r string) []string {
	time.Sleep(s.delay)
	return s.Client.RTrans(c, r)
}

// ConcurrentClient marks the wrapper concurrency-safe: it is stateless and
// the wrapped taint client is itself concurrent, so Synchronized must not
// add a lock that would serialize the top-down analysis behind the
// sleeping workers (which would let the tabulation hit the deadline by
// itself and mask the bug under test).
func (s *slowClient) ConcurrentClient() {}

// slowFixture builds a program whose single callee is triggered early and
// takes ≥256 bottom-up evaluation steps, so the worker's deadline check
// (which only consults the clock every 256th step) fires mid-run_bu.
func slowFixture() (*ir.Program, *killgen.Taint) {
	prog := ir.NewProgram("main")
	nops := make([]ir.Cmd, 350)
	for i := range nops {
		nops[i] = &ir.Prim{Kind: ir.Nop}
	}
	prog.Add(&ir.Proc{Name: "slow", Body: &ir.Seq{Cmds: nops}})
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Seq{Cmds: []ir.Cmd{
		&ir.Prim{Kind: ir.New, Dst: "t", Site: "src"},
		&ir.Prim{Kind: ir.New, Dst: "c", Site: "ok"},
		&ir.Loop{Body: &ir.Choice{Alts: []ir.Cmd{
			&ir.Prim{Kind: ir.Copy, Dst: "slow$x", Src: "t"},
			&ir.Prim{Kind: ir.Copy, Dst: "slow$x", Src: "c"},
		}}},
		&ir.Call{Callee: "slow"},
		&ir.Prim{Kind: ir.TSCall, Dst: "slow$x", Method: "emit"},
	}}})
	taint := killgen.NewTaint(prog, killgen.TaintConfig{
		Sources: []string{"src"},
		Sinks:   []string{"emit"},
	})
	return prog, taint
}

// TestWorkerErrorSurfaces checks that a non-budget error inside run_bu —
// here the wall-clock deadline — reaches Result.Err in both hybrid
// engines instead of being downgraded to a silent top-down fallback.
func TestWorkerErrorSurfaces(t *testing.T) {
	prog, taint := slowFixture()
	slow := &slowClient{Client: taint, delay: time.Millisecond}
	an, err := core.NewAnalysis[string, string, string](
		core.Synchronized[string, string, string](slow), prog)
	if err != nil {
		t.Fatal(err)
	}
	init := taint.Initial()
	cfg := core.DefaultConfig()
	cfg.K = 1
	cfg.Timeout = 50 * time.Millisecond

	for name, run := range map[string]func() *core.Result[string, string, string]{
		"swift":       func() *core.Result[string, string, string] { return an.RunSwift(init, cfg) },
		"swift-async": func() *core.Result[string, string, string] { return an.RunSwiftAsync(init, cfg) },
	} {
		res := run()
		if res.Err == nil {
			t.Errorf("%s: deadline inside run_bu was swallowed (Triggered=%v BUFailed=%v)",
				name, res.Triggered, res.BUFailed)
			continue
		}
		if !errors.Is(res.Err, core.ErrDeadline) {
			t.Errorf("%s: err = %v, want ErrDeadline", name, res.Err)
		}
	}
}

// budgetFixture builds two structurally identical, call-disjoint callees
// ("zz" is reached first, "aa" second), each triggered under k=1. Because
// the procedures are identical and independent, each trigger charges
// exactly half the total relation count of an unlimited run.
func budgetFixture() (*ir.Program, *killgen.Taint) {
	prog := ir.NewProgram("main")
	body := func(p string) ir.Cmd {
		return &ir.Seq{Cmds: []ir.Cmd{
			&ir.Choice{Alts: []ir.Cmd{
				&ir.Prim{Kind: ir.Copy, Dst: p + "$y", Src: p + "$x"},
				&ir.Prim{Kind: ir.Nop},
			}},
			&ir.Prim{Kind: ir.Copy, Dst: p + "$z", Src: p + "$y"},
		}}
	}
	prog.Add(&ir.Proc{Name: "aa", Body: body("aa")})
	prog.Add(&ir.Proc{Name: "zz", Body: body("zz")})
	call := func(p string) []ir.Cmd {
		return []ir.Cmd{
			&ir.Loop{Body: &ir.Choice{Alts: []ir.Cmd{
				&ir.Prim{Kind: ir.Copy, Dst: p + "$x", Src: "t"},
				&ir.Prim{Kind: ir.Copy, Dst: p + "$x", Src: "c"},
			}}},
			&ir.Call{Callee: p},
		}
	}
	cmds := []ir.Cmd{
		&ir.Prim{Kind: ir.New, Dst: "t", Site: "src"},
		&ir.Prim{Kind: ir.New, Dst: "c", Site: "ok"},
	}
	cmds = append(cmds, call("zz")...)
	cmds = append(cmds, call("aa")...)
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Seq{Cmds: cmds}})
	taint := killgen.NewTaint(prog, killgen.TaintConfig{Sources: []string{"src"}})
	return prog, taint
}

// TestPerTriggerBudget pins the budget model: MaxRelations bounds each
// run_bu invocation, so a budget that fits one trigger fits every trigger
// in both engines. Under the old cumulative accounting the synchronous
// engine failed the second trigger that the async engine completed.
func TestPerTriggerBudget(t *testing.T) {
	prog, taint := budgetFixture()
	an, err := core.NewAnalysis[string, string, string](
		core.Synchronized[string, string, string](taint), prog)
	if err != nil {
		t.Fatal(err)
	}
	init := taint.Initial()
	cfg := core.DefaultConfig()
	cfg.K = 1
	// Disable pruning so each trigger's relation count is independent of
	// ranking data and identical across engines and runs.
	cfg.Theta = core.Unlimited

	// Calibrate: an unlimited run triggers both procedures; the two are
	// identical and call-disjoint, so each charged exactly half the total.
	full := an.RunSwift(init, cfg)
	if !full.Completed() {
		t.Fatal(full.Err)
	}
	want := []string{"aa", "zz"}
	if len(full.Triggered) != 2 || full.Triggered[0] != want[0] || full.Triggered[1] != want[1] {
		t.Fatalf("calibration run triggered %v, want %v", full.Triggered, want)
	}
	perTrigger := full.BUStats.Relations / 2

	cfg.MaxRelations = perTrigger
	for name, run := range map[string]func() *core.Result[string, string, string]{
		"swift":       func() *core.Result[string, string, string] { return an.RunSwift(init, cfg) },
		"swift-async": func() *core.Result[string, string, string] { return an.RunSwiftAsync(init, cfg) },
	} {
		res := run()
		if !res.Completed() {
			t.Fatalf("%s: %v", name, res.Err)
		}
		if len(res.BUFailed) != 0 {
			t.Errorf("%s: triggers failed under a per-trigger budget that fits each: %v",
				name, res.BUFailed)
		}
		if len(res.Triggered) != 2 || res.Triggered[0] != want[0] || res.Triggered[1] != want[1] {
			t.Errorf("%s: Triggered = %v, want %v", name, res.Triggered, want)
		}
		if res.BUStats.Relations != full.BUStats.Relations {
			t.Errorf("%s: aggregated relations = %d, want %d",
				name, res.BUStats.Relations, full.BUStats.Relations)
		}
	}
}

// agreeFixture is one program the hybrid engines must agree on. build
// returns a fresh pipeline — program, client and initial state — so a
// replay never shares client state with the run it reproduces.
type agreeFixture struct {
	name  string
	build func() (*ir.Program, core.Client[string, string, string], string)
}

func agreeFixtures() []agreeFixture {
	drainish := func(prog func() *ir.Program) func() (*ir.Program, core.Client[string, string, string], string) {
		return func() (*ir.Program, core.Client[string, string, string], string) {
			kg := drainClient()
			return prog(), kg, kg.State(kg.MakeBits())
		}
	}
	return []agreeFixture{
		{"drain", drainish(drainProgram)},
		{"blocked", drainish(blockedProgram)},
		{"nested-blocked", drainish(nestedBlockedProgram)},
		{"budget", func() (*ir.Program, core.Client[string, string, string], string) {
			prog, taint := budgetFixture()
			return prog, taint, taint.Initial()
		}},
	}
}

// summarized returns the procedures with a bottom-up summary, sorted.
func summarized(res *core.Result[string, string, string]) []string {
	var names []string
	for name := range res.BU {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// TestHybridEnginesAgree is the cross-engine oracle of the hybrid driver:
// on every fixture, swift and a live swift-async run agree on Triggered
// (sorted in both, regardless of completion order — on the budget fixture
// "zz" completes first), the set of summarized procedures, BUFailed and
// the exit states; and replaying the live run's recorded trace reproduces
// its result field for field.
func TestHybridEnginesAgree(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, fx := range agreeFixtures() {
		var init string
		run := func(engine string, trace *core.Trace, replay bool) *core.Result[string, string, string] {
			prog, client, in := fx.build()
			init = in
			an, err := core.NewAnalysis[string, string, string](
				core.Synchronized[string, string, string](client), prog)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.K = 1
			if replay {
				cfg.ReplayTrace = trace
			} else {
				cfg.RecordTrace = trace
			}
			res, err := an.RunEngine(engine, init, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed() {
				t.Fatalf("%s: %s: %v", fx.name, engine, res.Err)
			}
			if !slices.IsSorted(res.Triggered) || len(slices.Compact(slices.Clone(res.Triggered))) != len(res.Triggered) {
				t.Errorf("%s: %s: Triggered not sorted and deduplicated: %v", fx.name, engine, res.Triggered)
			}
			return res
		}
		sync := run("swift", nil, false)
		trace := &core.Trace{}
		async := run("swift-async", trace, false)
		if !slices.Equal(sync.Triggered, async.Triggered) {
			t.Errorf("%s: Triggered: swift %v, swift-async %v", fx.name, sync.Triggered, async.Triggered)
		}
		if a, b := summarized(sync), summarized(async); !slices.Equal(a, b) {
			t.Errorf("%s: summarized: swift %v, swift-async %v", fx.name, a, b)
		}
		if !maps.Equal(sync.BUFailed, async.BUFailed) {
			t.Errorf("%s: BUFailed: swift %v, swift-async %v", fx.name, sync.BUFailed, async.BUFailed)
		}
		if a, b := sync.ExitStates("main", init), async.ExitStates("main", init); !slices.Equal(a, b) {
			t.Errorf("%s: exit states: swift %v, swift-async %v", fx.name, a, b)
		}
		recorded := fingerprintResult(async, "main", init)
		if replayed := fingerprintResult(run("swift-async", trace, true), "main", init); replayed != recorded {
			t.Errorf("%s: replay diverges from record\n--- record ---\n%s--- replay ---\n%s",
				fx.name, recorded, replayed)
		}
	}
	checkNoLeakedGoroutines(t, before)
}
