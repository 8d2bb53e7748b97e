package driver

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"swift/internal/benchprog"
	"swift/internal/core"
	"swift/internal/hir"
	"swift/internal/source"
	"swift/internal/typestate"
)

// plainClient hides the type-state client's TransCompiler capability, so
// the solvers serve every transfer through plain Trans. It keeps the
// ConcurrentClient marker, so swift-async runs it unlocked like the client
// it wraps.
type plainClient struct {
	core.Client[typestate.AbsID, typestate.RelID, typestate.FormulaID]
}

func (plainClient) ConcurrentClient() {}

// compiledCase is one program of the compiled-transfer guard, with the
// configuration its engines run under.
type compiledCase struct {
	name string
	prog *hir.Program
	cfg  core.Config
}

// runForm runs one engine on a fresh pipeline of the program, through the
// client's compiled transfers or (plain) through Trans alone, and returns
// the result tables' encoding and the run's error.
func runForm(t *testing.T, c compiledCase, engine string, plain bool, cfg core.Config) ([]byte, error) {
	t.Helper()
	b, err := FromHIR(c.prog)
	if err != nil {
		t.Fatal(err)
	}
	an := b.Core
	if plain {
		an, err = core.NewAnalysis[typestate.AbsID, typestate.RelID, typestate.FormulaID](
			plainClient{b.TS}, b.Lowered.Prog)
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := an.RunEngine(engine, b.TS.InitialState(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return EncodeResultTables(b, res), res.Err
}

// TestCompiledTransUnobservable is the engine-level guard of the
// TransCompiler contract: every engine produces byte-identical result
// tables — raw interned state IDs included — whether the solvers use the
// client's compiled transfers or plain Trans (capability hidden, or an
// empty fault plan armed). For swift-async a live run records its
// schedule under each form, and each recording replays to the same bytes
// under both forms.
func TestCompiledTransUnobservable(t *testing.T) {
	var cases []compiledCase
	profiles := []string{"jpat-p", "elevator", "toba-s", "deep-nest"}
	if testing.Short() {
		profiles = profiles[:2]
	}
	for _, name := range profiles {
		p, ok := benchprog.ProfileByName(name)
		if !ok {
			t.Fatalf("unknown profile %s", name)
		}
		if name == "deep-nest" {
			p.LoopNest = 3 // the profile's depth 6 costs ten times the rest of the test
		}
		prog, err := benchprog.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, compiledCase{name, prog, core.DefaultConfig()})
	}
	for trial := 0; trial < 24; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		prog, err := source.Parse(randomSource(rng))
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.K = 1 + trial%3 // small programs: low thresholds so triggers fire
		cases = append(cases, compiledCase{fmt.Sprintf("rand%d", trial), prog, cfg})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkCompiledUnobservable(t, c) })
	}
}

func checkCompiledUnobservable(t *testing.T, c compiledCase) {
	for _, engine := range []string{"td", "bu", "swift"} {
		compiled, _ := runForm(t, c, engine, false, c.cfg)
		if plain, _ := runForm(t, c, engine, true, c.cfg); !bytes.Equal(compiled, plain) {
			t.Errorf("%s: result tables differ between compiled transfers and Trans", engine)
		}
		// A fault-armed run wraps the client without the capability.
		armed := c.cfg
		armed.Fault = &core.FaultPlan{}
		if got, _ := runForm(t, c, engine, false, armed); !bytes.Equal(compiled, got) {
			t.Errorf("%s: an empty fault plan changed the result tables", engine)
		}
	}
	for _, recordPlain := range []bool{false, true} {
		cfg := c.cfg
		cfg.RecordTrace = &core.Trace{Label: c.name}
		if _, err := runForm(t, c, "swift-async", recordPlain, cfg); err != nil {
			t.Fatalf("live swift-async: %v", err)
		}
		cfg.RecordTrace, cfg.ReplayTrace = nil, cfg.RecordTrace
		compiled, err := runForm(t, c, "swift-async", false, cfg)
		if err != nil {
			t.Fatalf("swift-async replay: %v", err)
		}
		if plain, _ := runForm(t, c, "swift-async", true, cfg); !bytes.Equal(compiled, plain) {
			t.Errorf("swift-async (recorded with plain=%t): replayed tables differ between compiled transfers and Trans",
				recordPlain)
		}
	}
}
