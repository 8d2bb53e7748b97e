package typestate

import (
	"math/rand"
	"reflect"
	"testing"

	"swift/internal/core"
	"swift/internal/ir"
)

// TestCompiledTransMatchesTrans checks the TransCompiler contract
// (internal/core/client.go): for every primitive of a program and every
// abstract state the top-down analysis reaches, the compiled transfer must
// append exactly what Trans returns — same states, same order — and must
// extend the destination slice it is given rather than replace it.
func TestCompiledTransMatchesTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	file := FileProperty()
	for trial := 0; trial < 40; trial++ {
		prog := randomProgram(rng)
		ts, err := NewAnalysis(prog, map[string]*Property{"s1": file, "s2": file}, nil)
		if err != nil {
			t.Fatalf("trial %d: NewAnalysis: %v", trial, err)
		}
		an, err := core.NewAnalysis[AbsID, RelID, FormulaID](ts, prog)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res := an.RunTD(ts.InitialState(), core.TDConfig())
		if !res.Completed() {
			t.Fatalf("trial %d: TD did not complete: %v", trial, res.Err)
		}
		states := res.TD.AllStates()
		if len(states) == 0 {
			t.Fatalf("trial %d: no reached states", trial)
		}
		prefix := []AbsID{states[0]}
		checked := 0
		for _, proc := range an.CFG.ByProc {
			for _, n := range proc.Nodes {
				for _, e := range n.Out {
					if e.IsCall() {
						continue
					}
					compiled := ts.CompileTrans(e.Prim)
					for _, s := range states {
						want := ts.Trans(e.Prim, s)
						got := compiled(s, nil)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d: %v on state %d: compiled %v, Trans %v",
								trial, e.Prim, s, got, want)
						}
						// Append semantics: an existing prefix must survive.
						got2 := compiled(s, append([]AbsID(nil), prefix...))
						if len(got2) != 1+len(want) || got2[0] != prefix[0] ||
							!reflect.DeepEqual(got2[1:], want) {
							t.Fatalf("trial %d: %v on state %d: compiled clobbered dst: %v",
								trial, e.Prim, s, got2)
						}
						checked++
					}
				}
			}
		}
		if checked == 0 {
			t.Fatalf("trial %d: no primitive/state pairs checked", trial)
		}
	}
}

// TestCompiledTransInternOrder checks the stronger half of the
// TransCompiler contract: a compiled transfer interns new abstract states
// in exactly the order Trans does, so the solvers may use either form
// without renumbering a run's states. Two fresh twin analyses of one
// program see the same (primitive, state) sequence, one through Trans and
// one through compiled transfers; after every call the returned IDs and
// the number of interned states must agree. Compiling every primitive up
// front also checks that compilation itself interns no state.
func TestCompiledTransInternOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	file := FileProperty()
	track := map[string]*Property{"s1": file, "s2": file}
	spawned := 0
	for trial := 0; trial < 40; trial++ {
		prog := randomProgram(rng)
		plain, err := NewAnalysis(prog, track, nil)
		if err != nil {
			t.Fatalf("trial %d: NewAnalysis: %v", trial, err)
		}
		twin, err := NewAnalysis(prog, track, nil)
		if err != nil {
			t.Fatalf("trial %d: NewAnalysis: %v", trial, err)
		}
		an, err := core.NewAnalysis[AbsID, RelID, FormulaID](plain, prog)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var prims []*ir.Prim
		for _, n := range an.CFG.AllNodes {
			for _, e := range n.Out {
				if !e.IsCall() {
					prims = append(prims, e.Prim)
				}
			}
		}
		compiled := make([]func(AbsID, []AbsID) []AbsID, len(prims))
		for i, p := range prims {
			compiled[i] = twin.CompileTrans(p)
		}
		if got, want := twin.StateCount(), plain.StateCount(); got != want {
			t.Fatalf("trial %d: compiling interned states: %d states, want %d", trial, got, want)
		}
		// Every primitive on every reached state, breadth first, in one
		// fixed order for both twins.
		states := []AbsID{plain.InitialState()}
		seen := map[AbsID]bool{states[0]: true}
		calls := 0
		for i := 0; i < len(states) && calls < 4000; i++ {
			s := states[i]
			for j, p := range prims {
				want := plain.Trans(p, s)
				got := compiled[j](s, nil)
				calls++
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d call %d: %v on state %d: compiled %v, Trans %v",
						trial, calls, p, s, got, want)
				}
				if g, w := twin.StateCount(), plain.StateCount(); g != w {
					t.Fatalf("trial %d call %d: %v on state %d: %d states interned, Trans %d",
						trial, calls, p, s, g, w)
				}
				if p.Kind == ir.New && len(want) == 2 {
					spawned++
				}
				for _, x := range want {
					if !seen[x] {
						seen[x] = true
						states = append(states, x)
					}
				}
			}
		}
	}
	if spawned == 0 {
		t.Fatal("no tracked allocation was exercised")
	}
}

// TestCompileTransCached checks that compiling the same primitive twice
// returns the same cached function, so repeated solver runs do not redo the
// per-primitive resolution work.
func TestCompileTransCached(t *testing.T) {
	prog := ir.NewProgram("main")
	prog.Add(&ir.Proc{Name: "main", Body: &ir.Seq{Cmds: []ir.Cmd{
		&ir.Prim{Kind: ir.New, Dst: "a", Site: "s1"},
		&ir.Prim{Kind: ir.TSCall, Dst: "a", Method: "open"},
	}}})
	ts, err := NewAnalysis(prog, map[string]*Property{"s1": FileProperty()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.NewAnalysis[AbsID, RelID, FormulaID](ts, prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, proc := range an.CFG.ByProc {
		for _, n := range proc.Nodes {
			for _, e := range n.Out {
				if e.IsCall() {
					continue
				}
				f1 := ts.CompileTrans(e.Prim)
				f2 := ts.CompileTrans(e.Prim)
				if reflect.ValueOf(f1).Pointer() != reflect.ValueOf(f2).Pointer() {
					t.Fatalf("%v: CompileTrans not cached", e.Prim)
				}
			}
		}
	}
}
