package core_test

// Regression tests for the pending-trigger drain: a trigger postponed while
// some frontier procedure has no top-down incoming state used to be retried
// only every 64th call event, so programs whose last call events arrive
// inside a retry window gap silently dropped the trigger and the run
// under-summarized. The fixtures here produce well under 64 call events, so
// without the final drain pass the trigger is lost.

import (
	"slices"
	"sync"
	"testing"

	"swift/internal/core"
	"swift/internal/ir"
	"swift/internal/killgen"
)

// drainClient builds a kill/gen client over facts {p, q, r} whose primitive
// commands are selected by the Dst tag of a Nop:
//
//	genp, genq  — generate the fact
//	norm        — kill p and q, generate r (collapses all states to {r})
//	block       — no cases: nothing flows past it (assume-false)
//
// Any other tag is the identity.
func drainClient() *killgen.Analysis {
	kg := killgen.NewAnalysis([]string{"p", "q", "r"})
	norm := kg.KillCase("p", "q")
	norm.Gen = kg.MakeBits("r")
	kg.SetSpec(func(c *ir.Prim) []killgen.Case {
		switch c.Dst {
		case "genp":
			return []killgen.Case{kg.GenCase("p")}
		case "genq":
			return []killgen.Case{kg.GenCase("q")}
		case "norm":
			return []killgen.Case{norm}
		case "block":
			return nil
		}
		return []killgen.Case{kg.IdentityCase()}
	})
	return kg
}

func tag(name string) *ir.Prim { return &ir.Prim{Kind: ir.Nop, Dst: name} }

// drainProgram delivers two distinct states to f (triggering it at k=1)
// before f's body — which collapses both to one state and then calls g —
// has run: at trigger time g has no incoming states, so the trigger is
// postponed. Only a handful of call events follow, far fewer than the 64
// needed for a periodic retry.
func drainProgram() *ir.Program {
	prog := ir.NewProgram("main")
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Choice{Alts: []ir.Cmd{
		&ir.Seq{Cmds: []ir.Cmd{tag("genp"), &ir.Call{Callee: "f"}}},
		&ir.Seq{Cmds: []ir.Cmd{tag("genq"), &ir.Call{Callee: "f"}}},
	}}})
	prog.Add(&ir.Proc{Name: "f", Body: &ir.Seq{Cmds: []ir.Cmd{
		tag("norm"), &ir.Call{Callee: "g"},
	}}})
	prog.Add(&ir.Proc{Name: "g", Body: tag("noop")})
	return prog
}

// blockedProgram is drainProgram with an extra callee h of f that is
// unreachable top-down (guarded by "block"), so EntrySeen[h] stays empty
// forever and the trigger for f can only run forced.
func blockedProgram() *ir.Program {
	prog := ir.NewProgram("main")
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Choice{Alts: []ir.Cmd{
		&ir.Seq{Cmds: []ir.Cmd{tag("genp"), &ir.Call{Callee: "f"}}},
		&ir.Seq{Cmds: []ir.Cmd{tag("genq"), &ir.Call{Callee: "f"}}},
	}}})
	prog.Add(&ir.Proc{Name: "f", Body: &ir.Choice{Alts: []ir.Cmd{
		&ir.Seq{Cmds: []ir.Cmd{tag("norm"), &ir.Call{Callee: "g"}}},
		&ir.Seq{Cmds: []ir.Cmd{tag("block"), &ir.Call{Callee: "h"}}},
	}}})
	prog.Add(&ir.Proc{Name: "g", Body: tag("noop")})
	prog.Add(&ir.Proc{Name: "h", Body: tag("noop")})
	return prog
}

// nestedBlockedProgram nests blockedProgram one level deeper: main sends
// {p} and {q} to both a and b, a = norm + (block; call b) and
// b = norm + (block; call h). At k=1 both a and b trigger, and both
// frontiers contain h, which the top-down analysis never reaches, so the
// drain must force them. Forcing a summarizes a's whole frontier {a, b, h},
// which leaves nothing for b's forced trigger to do.
func nestedBlockedProgram() *ir.Program {
	prog := ir.NewProgram("main")
	var alts []ir.Cmd
	for _, callee := range []string{"a", "b"} {
		for _, gen := range []string{"genp", "genq"} {
			alts = append(alts, &ir.Seq{Cmds: []ir.Cmd{tag(gen), &ir.Call{Callee: callee}}})
		}
	}
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Choice{Alts: alts}})
	blocked := func(callee string) ir.Cmd {
		return &ir.Choice{Alts: []ir.Cmd{
			tag("norm"),
			&ir.Seq{Cmds: []ir.Cmd{tag("block"), &ir.Call{Callee: callee}}},
		}}
	}
	prog.Add(&ir.Proc{Name: "a", Body: blocked("b")})
	prog.Add(&ir.Proc{Name: "b", Body: blocked("h")})
	prog.Add(&ir.Proc{Name: "h", Body: tag("noop")})
	return prog
}

func runDrainFixture(t *testing.T, prog *ir.Program, async bool) *core.Result[string, string, string] {
	t.Helper()
	return runDrainFixtureWarm(t, prog, async, nil)
}

// runDrainFixtureWarm is runDrainFixture with a summary source attached.
func runDrainFixtureWarm(
	t *testing.T, prog *ir.Program, async bool, warm core.SummarySource[string, string],
) *core.Result[string, string, string] {
	t.Helper()
	kg := drainClient()
	var client core.Client[string, string, string] = kg
	if async {
		client = core.Synchronized[string, string, string](kg)
	}
	an, err := core.NewAnalysis[string, string, string](client, prog)
	if err != nil {
		t.Fatal(err)
	}
	an.Warm = warm
	cfg := core.DefaultConfig()
	cfg.K = 1
	init := kg.State(kg.MakeBits())
	if async {
		return an.RunSwiftAsync(init, cfg)
	}
	return an.RunSwift(init, cfg)
}

func checkDrained(t *testing.T, res *core.Result[string, string, string], wantBU []string) {
	t.Helper()
	if !res.Completed() {
		t.Fatalf("run failed: %v", res.Err)
	}
	if !slices.Equal(res.Triggered, []string{"f"}) {
		t.Errorf("Triggered = %v, want [f] (pending trigger dropped?)", res.Triggered)
	}
	for _, name := range wantBU {
		if _, ok := res.BU[name]; !ok {
			t.Errorf("no bottom-up summary for %s; BU has %d entries", name, len(res.BU))
		}
	}
}

func TestPendingTriggerDrained(t *testing.T) {
	res := runDrainFixture(t, drainProgram(), false)
	checkDrained(t, res, []string{"f", "g"})
}

// TestPendingTriggerForcedDrain covers the frontier-never-ready case: h is
// unreachable top-down, so the drain must force the trigger (pruning falls
// back to canonical order for procedures without ranking data).
func TestPendingTriggerForcedDrain(t *testing.T) {
	res := runDrainFixture(t, blockedProgram(), false)
	checkDrained(t, res, []string{"f", "g", "h"})
}

// TestAsyncPendingTriggerDrained is the asynchronous-engine analogue; it
// also pins the Result.Triggered fix (trigger procedures only, not every
// summarized frontier procedure).
func TestAsyncPendingTriggerDrained(t *testing.T) {
	res := runDrainFixture(t, drainProgram(), true)
	checkDrained(t, res, []string{"f", "g"})
}

func TestAsyncPendingTriggerForcedDrain(t *testing.T) {
	res := runDrainFixture(t, blockedProgram(), true)
	checkDrained(t, res, []string{"f", "g", "h"})
}

// publishLog is a summary source that never hits and logs the frontier
// of every outcome offered to it. Safe for concurrent use.
type publishLog struct {
	mu        sync.Mutex
	frontiers [][]string
}

func (p *publishLog) Lookup(string, []string) (core.TriggerOutcome[string, string], bool) {
	return core.TriggerOutcome[string, string]{}, false
}

func (p *publishLog) Publish(_ string, frontier []string, _ core.TriggerOutcome[string, string]) {
	p.mu.Lock()
	p.frontiers = append(p.frontiers, slices.Clone(frontier))
	p.mu.Unlock()
}

// TestNestedForcedDrainDropsSummarized pins the forced drain against
// re-running a trigger whose procedure an earlier forced trigger already
// summarized: b must be dropped, not run on an empty frontier (one extra
// bottom-up round, a spurious Triggered entry, and an empty outcome
// published to the summary source). Both engines must agree.
func TestNestedForcedDrainDropsSummarized(t *testing.T) {
	var stats []core.BUStats
	for _, async := range []bool{false, true} {
		log := &publishLog{}
		res := runDrainFixtureWarm(t, nestedBlockedProgram(), async, log)
		if !res.Completed() {
			t.Fatalf("%s: %v", res.Engine, res.Err)
		}
		if !slices.Equal(res.Triggered, []string{"a"}) {
			t.Errorf("%s: Triggered = %v, want [a]", res.Engine, res.Triggered)
		}
		for _, name := range []string{"a", "b", "h"} {
			if _, ok := res.BU[name]; !ok {
				t.Errorf("%s: no bottom-up summary for %s", res.Engine, name)
			}
		}
		for _, f := range log.frontiers {
			if len(f) == 0 {
				t.Errorf("%s: published an outcome for an empty frontier", res.Engine)
			}
		}
		stats = append(stats, res.BUStats)
	}
	if stats[0] != stats[1] {
		t.Errorf("BUStats: swift %+v, swift-async %+v", stats[0], stats[1])
	}
}

// TestSwiftDrainCoincidence checks Theorem 3.1 still holds on the drain
// fixtures: exit states match the pure top-down analysis.
func TestSwiftDrainCoincidence(t *testing.T) {
	for _, prog := range []*ir.Program{drainProgram(), blockedProgram(), nestedBlockedProgram()} {
		kg := drainClient()
		an, err := core.NewAnalysis[string, string, string](kg, prog)
		if err != nil {
			t.Fatal(err)
		}
		init := kg.State(kg.MakeBits())
		td := an.RunTD(init, core.TDConfig())
		cfg := core.DefaultConfig()
		cfg.K = 1
		sw := an.RunSwift(init, cfg)
		if !td.Completed() || !sw.Completed() {
			t.Fatalf("td err=%v swift err=%v", td.Err, sw.Err)
		}
		want := td.ExitStates("main", init)
		got := sw.ExitStates("main", init)
		if !slices.Equal(want, got) {
			t.Errorf("exit states: swift %v, td %v", got, want)
		}
	}
}
