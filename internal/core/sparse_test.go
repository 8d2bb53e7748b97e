package core_test

// Equivalence tests for the structure-driven sparse scheduler: on every
// program we can get our hands on — the killgen fixture, randomized
// killgen programs, the paper-mirror benchmarks and the deep-nest
// structure stress — the sparse priority worklist with its loop-structure
// index and region memoization must produce result tables and counters
// byte-identical to the dense FIFO (the packing-limit fallback on the
// compressed view, and the raw-view reference), under every engine and at
// every slice-worker count. The sparse path is purely a scheduling
// optimization; these tests are its contract.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"swift/internal/benchprog"
	"swift/internal/core"
	"swift/internal/driver"
)

// sparseConfigs are the solver paths that must all be observationally
// identical. The first is the default: sparse scheduler over the
// compressed view with region memoization; only it runs sparse.
var sparseConfigs = []struct {
	name  string
	apply func(core.Config) core.Config
}{
	{"default", func(c core.Config) core.Config { return c }},
	{"dense", core.DenseFallback},
	{"reference", core.Reference},
}

// sparseVariants runs RunTD on every solver path and asserts the tables
// and counters are indistinguishable, plus that the sparse stats honestly
// report whether the scheduler engaged. The default (sparse) result is
// returned.
func sparseVariants(t *testing.T, label string, an *core.Analysis[string, string, string], init string, cfg core.Config) *core.Result[string, string, string] {
	t.Helper()
	base := an.RunTD(init, cfg)
	if !base.TD.Sparse.Enabled {
		t.Errorf("%s: sparse scheduler did not engage on the default config", label)
	}
	for _, v := range sparseConfigs[1:] {
		got := an.RunTD(init, v.apply(cfg))
		if !errors.Is(got.Err, base.Err) && !errors.Is(base.Err, got.Err) {
			t.Errorf("%s/%s: err = %v, want %v", label, v.name, got.Err, base.Err)
			continue
		}
		sameTD(t, label+"/"+v.name, base.TD, got.TD)
		if got.TD.Sparse.Enabled {
			t.Errorf("%s/%s: reported a sparse run", label, v.name)
		}
	}
	return base
}

func TestSparseMatchesDenseOnFixture(t *testing.T) {
	an, taint := newAnalysis(t)
	init := taint.Initial()
	res := sparseVariants(t, "fixture", an, init, core.TDConfig())
	if !res.Completed() {
		t.Fatalf("td: %v", res.Err)
	}

	// The bottom-up baseline's instantiation pass runs the same solver, so
	// it must be equally indifferent to the scheduler.
	buBase := an.RunBU(init, core.BUConfig())
	for _, v := range sparseConfigs[1:] {
		got := an.RunBU(init, v.apply(core.BUConfig()))
		if !buBase.Completed() || !got.Completed() {
			t.Fatalf("bu/%s: %v / %v", v.name, buBase.Err, got.Err)
		}
		sameTD(t, "fixture/bu/"+v.name, buBase.TD, got.TD)
		if buBase.BUStats != got.BUStats {
			t.Errorf("bu/%s: stats differ: %+v vs %+v", v.name, buBase.BUStats, got.BUStats)
		}
	}
}

// TestSparseMatchesDenseRandomPrograms fuzzes the equivalence over seeded
// random programs: every solver path of the top-down solver, the
// bottom-up instantiation pass, and the hybrid (which always pins the
// dense FIFO, so it must never report a sparse run and must match the
// reference bit for bit).
func TestSparseMatchesDenseRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		prog, taint := randomKillgenProgram(rng)
		an, err := core.NewAnalysis[string, string, string](taint, prog)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		init := taint.Initial()
		label := fmt.Sprintf("trial%d", trial)
		sparseVariants(t, label, an, init, core.TDConfig())

		buBase := an.RunBU(init, core.BUConfig())
		buDense := an.RunBU(init, core.DenseFallback(core.BUConfig()))
		if buBase.Err != nil || buDense.Err != nil {
			t.Fatalf("%s: bu: %v / %v", label, buBase.Err, buDense.Err)
		}
		sameTD(t, label+"/bu", buBase.TD, buDense.TD)
		if buBase.BUStats != buDense.BUStats {
			t.Errorf("%s: bu stats differ: %+v vs %+v", label, buBase.BUStats, buDense.BUStats)
		}

		cfg := core.DefaultConfig()
		cfg.K = 1
		swBase := an.RunSwift(init, cfg)
		swRef := an.RunSwift(init, core.Reference(cfg))
		if swBase.Err != nil || swRef.Err != nil {
			t.Fatalf("%s: swift: %v / %v", label, swBase.Err, swRef.Err)
		}
		sameTD(t, label+"/swift", swBase.TD, swRef.TD)
		if swBase.TD.Sparse.Enabled || swRef.TD.Sparse.Enabled {
			t.Errorf("%s: hybrid reported a sparse run; it must stay dense", label)
		}
		if swBase.BUStats != swRef.BUStats {
			t.Errorf("%s: swift stats differ from the reference", label)
		}
	}
}

// TestSparseMatchesDenseOnBenchSuite drives the full pipeline on every
// paper-mirror benchmark plus the deep-nest structure stress: the encoded
// result tables — every path edge, summary, entry multiset, error text and
// counter — must be byte-identical between the dense-fallback and sparse
// runs of one shared build. Runs that exhaust the (deliberately modest) path-edge
// budget must abort on the identical insert count, per the
// original-graph-units contract.
func TestSparseMatchesDenseOnBenchSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-suite equivalence is not a -short test")
	}
	names := []string{"deep-nest"}
	for _, p := range benchprog.Profiles() {
		names = append(names, p.Name)
	}
	for _, name := range names {
		for _, engine := range []string{"td", "bu"} {
			t.Run(name+"/"+engine, func(t *testing.T) {
				p, ok := benchprog.ProfileByName(name)
				if !ok {
					t.Fatalf("unknown profile %s", name)
				}
				prog, err := benchprog.Generate(p)
				if err != nil {
					t.Fatal(err)
				}
				// One build for all runs: shared interner, comparable AbsIDs
				// (see TestCompressedMatchesRawOnTestdata).
				b, err := driver.FromHIR(prog)
				if err != nil {
					t.Fatal(err)
				}
				run := func(cfg core.Config) *driver.Result {
					// The quick-budget caps: the largest stand-ins are built
					// to exhaust the TD path-edge budget, and the unpruned
					// bottom-up phase needs a relation budget to terminate at
					// all on the alias-tangled ones.
					cfg.MaxPathEdges = 300_000
					cfg.MaxRelations = 60_000
					res, err := b.Run(engine, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				dense := run(core.DenseFallback(core.DefaultConfig()))
				sparse := run(core.DefaultConfig())
				if (dense.Err == nil) != (sparse.Err == nil) ||
					(dense.Err != nil && !errors.Is(sparse.Err, core.ErrBudget)) {
					t.Fatalf("err = %v, dense err = %v", sparse.Err, dense.Err)
				}
				if dense.Err != nil {
					// Budget abort: only the insert count is pinned across
					// schedulers (see TestBudgetAbortAgreesAcrossViews). A bu
					// run aborted before instantiation has no TD table at
					// all — then both sides must lack one.
					if (dense.TD == nil) != (sparse.TD == nil) {
						t.Errorf("TD table presence differs at abort")
					} else if dense.TD != nil && dense.TD.NumPathEdges != sparse.TD.NumPathEdges {
						t.Errorf("path edges at abort: %d vs %d",
							sparse.TD.NumPathEdges, dense.TD.NumPathEdges)
					}
					return
				}
				if !bytes.Equal(driver.EncodeResultTables(b, dense), driver.EncodeResultTables(b, sparse)) {
					sameTD(t, "sparse", dense.TD, sparse.TD) // pinpoint the field
					t.Errorf("encoded result tables differ from dense")
				}
			})
		}
	}
}

// TestSparseStatsSanity pins that the scheduler's telemetry reflects real
// work: batching must pop far fewer times than it propagates on loopy
// programs, and the deep loop nest must exercise region memoization.
func TestSparseStatsSanity(t *testing.T) {
	for _, tc := range []struct {
		name       string
		wantRegion bool
	}{{"elevator", false}, {"deep-nest", true}} {
		p, ok := benchprog.ProfileByName(tc.name)
		if !ok {
			t.Fatalf("unknown profile %s", tc.name)
		}
		prog, err := benchprog.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := driver.FromHIR(prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Run("td", core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatalf("%s: %v", tc.name, res.Err)
		}
		sp := res.TD.Sparse
		if !sp.Enabled || sp.Regions == 0 || sp.MaxDepth == 0 {
			t.Errorf("%s: structure index missing from stats: %+v", tc.name, sp)
		}
		if sp.Pops == 0 || sp.Pops >= res.TD.Steps {
			t.Errorf("%s: batching ineffective: %d pops for %d steps", tc.name, sp.Pops, res.TD.Steps)
		}
		if sp.RegionFallbacks != 0 {
			t.Errorf("%s: %d region replay fallbacks", tc.name, sp.RegionFallbacks)
		}
		// RegionHits stays zero when every (region, seed) pair is unique —
		// a repeated seed is filtered at the path-edge table before it can
		// re-reach the header — so the engagement signal is computed images
		// (misses) being replayed, not hits.
		if tc.wantRegion && (sp.MemoRegions == 0 || sp.RegionMisses == 0 || sp.ReplayFacts == 0) {
			t.Errorf("%s: region memoization did not engage: %+v", tc.name, sp)
		}
	}
}

// TestDenseFallbackMatchesSparse drives newSparseState's packing-limit
// fallback — the only production path on which td runs dense over the
// compressed view — and pins it to the sparse run of the same build: the
// scheduler must report itself off, the encoded tables and counters must
// be byte-identical, and a path-edge budget must abort both on the same
// insert count.
func TestDenseFallbackMatchesSparse(t *testing.T) {
	for _, name := range []string{"elevator", "deep-nest"} {
		t.Run(name, func(t *testing.T) {
			b := tabulationBuild(t, name)
			run := func(cfg core.Config) *driver.Result {
				res, err := b.Run("td", cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			sparse := run(core.TDConfig())
			dense := run(core.DenseFallback(core.TDConfig()))
			if sparse.Err != nil || dense.Err != nil {
				t.Fatalf("td: %v / %v", sparse.Err, dense.Err)
			}
			if !sparse.TD.Sparse.Enabled || dense.TD.Sparse.Enabled {
				t.Fatalf("Sparse.Enabled: default %v, fallback %v; want true, false",
					sparse.TD.Sparse.Enabled, dense.TD.Sparse.Enabled)
			}
			sameTD(t, name, sparse.TD, dense.TD)
			if !bytes.Equal(driver.EncodeResultTables(b, sparse), driver.EncodeResultTables(b, dense)) {
				t.Errorf("encoded result tables differ")
			}

			cfg := core.TDConfig()
			cfg.MaxPathEdges = sparse.TD.NumPathEdges / 2
			sparse, dense = run(cfg), run(core.DenseFallback(cfg))
			if !errors.Is(sparse.Err, core.ErrBudget) || !errors.Is(dense.Err, core.ErrBudget) {
				t.Fatalf("budget did not fire: %v / %v", sparse.Err, dense.Err)
			}
			if sparse.TD.NumPathEdges != dense.TD.NumPathEdges {
				t.Errorf("path edges at abort: %d vs %d", sparse.TD.NumPathEdges, dense.TD.NumPathEdges)
			}
		})
	}
}

// TestSparseMatchesDenseSliced closes the loop at the driver's sliced
// layer, against the dense fallback. Per-slice clients intern fresh, so
// same-scheduler runs produce identical per-slice tables at every worker
// count; across schedulers the
// traversal order — and with it the AbsID numbering — differs, so the
// comparison drops to the ID-independent quantities: every per-slice
// counter, the aggregate work, and the merged error report.
func TestSparseMatchesDenseSliced(t *testing.T) {
	p, ok := benchprog.ProfileByName("toba-s")
	if !ok {
		t.Fatal("unknown profile toba-s")
	}
	prog, err := benchprog.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := driver.FromHIR(prog)
	if err != nil {
		t.Fatal(err)
	}
	runSliced := func(workers int, dense bool) (*driver.SlicedResult, []string) {
		cfg := core.DefaultConfig()
		cfg.SliceWorkers = workers
		if dense {
			cfg = core.DenseFallback(cfg)
		}
		res, err := b.RunSliced("td", cfg)
		if err != nil {
			t.Fatalf("workers=%d dense=%v: %v", workers, dense, err)
		}
		if e := res.Err(); e != nil {
			t.Fatalf("workers=%d dense=%v: %v", workers, dense, e)
		}
		report, err := b.SlicedErrorReport(res)
		if err != nil {
			t.Fatalf("workers=%d dense=%v: %v", workers, dense, err)
		}
		return res, report
	}
	base, baseReport := runSliced(1, false)
	for _, workers := range []int{1, 2, 8} {
		for _, dense := range []bool{false, true} {
			if workers == 1 && !dense {
				continue // the baseline itself
			}
			label := fmt.Sprintf("workers=%d/dense=%v", workers, dense)
			got, report := runSliced(workers, dense)
			if len(got.Slices) != len(base.Slices) {
				t.Fatalf("%s: %d slices, want %d", label, len(got.Slices), len(base.Slices))
			}
			for i := range base.Slices {
				if got.Slices[i].ID != base.Slices[i].ID {
					t.Fatalf("%s: slice %d is %s, want %s", label, i, got.Slices[i].ID, base.Slices[i].ID)
				}
				slabel := label + "/" + string(base.Slices[i].ID)
				bt, gt := base.Slices[i].Result.TD, got.Slices[i].Result.TD
				if dense {
					if bt.NumPathEdges != gt.NumPathEdges || bt.NumSummaries != gt.NumSummaries || bt.Steps != gt.Steps {
						t.Errorf("%s: counters differ: (%d,%d,%d) vs (%d,%d,%d)", slabel,
							bt.NumPathEdges, bt.NumSummaries, bt.Steps,
							gt.NumPathEdges, gt.NumSummaries, gt.Steps)
					}
				} else {
					sameTD(t, slabel, bt, gt)
				}
			}
			if got.WorkUnits() != base.WorkUnits() {
				t.Errorf("%s: work units %d, want %d", label, got.WorkUnits(), base.WorkUnits())
			}
			if fmt.Sprint(report) != fmt.Sprint(baseReport) {
				t.Errorf("%s: merged report %v, want %v", label, report, baseReport)
			}
		}
	}
}
