package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"swift/internal/driver"
)

// smallWorkload is a cold workload small enough for tests: a program with
// error sites (toba-s) and a loop nest, so both verdict halves and the
// sparse counters are exercised.
func smallWorkload(engine, ref string) *coldWorkload {
	return &coldWorkload{name: "test-" + engine, engine: engine, refEngine: ref,
		pool: []shape{{"toba-s", 0, 1}, {"deep-nest", 2, 1}}}
}

func TestOracleCatchesWrongVerdict(t *testing.T) {
	st, err := smallWorkload("swift", "td").setup(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r := st.run(0, nil); r.failed != 0 || r.attempted != len(st.progs) {
		t.Fatalf("correct references: %d of %d requests failed: %v", r.failed, r.attempted, r.failures)
	}
	p := st.progs[0]
	if len(p.ref.Sites) == 0 {
		t.Fatalf("%s has no error sites; the test needs one to drop", p.info.Name)
	}
	good := p.ref
	p.ref.Sites = good.Sites[1:] // a wrong verdict: one site fewer
	if r := st.run(0, nil); r.failed != 1 || !strings.Contains(r.failures[0], p.info.Name) {
		t.Fatalf("wrong reference: failed=%d failures=%v, want exactly %s to fail", r.failed, r.failures, p.info.Name)
	}
	p.ref = good

	// The soundness half: a concrete error the report lacks.
	if err := (verdict{Sites: []string{"a"}, Concrete: []string{"a", "b"}}).check([]string{"a"}); err == nil {
		t.Error("a concrete error missing from the report passed the oracle")
	}
	if err := (verdict{Sites: []string{"a"}}).checkIsError("b", true); err == nil {
		t.Error("a wrong isError answer passed the oracle")
	}
	if err := (verdict{Digest: "x"}).checkDigest("y"); err == nil {
		t.Error("a wrong tables digest passed the oracle")
	}
}

func TestServeEditsOracleAndCleanup(t *testing.T) {
	tmp := t.TempDir()
	st, err := serveSetup(2, 2, 2, tmp)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	dir := st.dir
	r, err := st.run(2, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[reqKind]int{}
	for i, q := range r.reqs {
		if q.out.err != nil {
			t.Errorf("request %d: %v", i, q.out.err)
		}
		kinds[q.kind]++
	}
	if kinds[kindHit] == 0 || kinds[kindMiss] == 0 || kinds[kindQuery] == 0 {
		t.Errorf("schedule lacks a request kind: %v", kinds)
	}
	if d := r.after.Robustness.Shed - r.before.Robustness.Shed; d != 0 {
		t.Errorf("%d requests shed", d)
	}

	// Wrong references: every /analyze verdict and every isError answer
	// must now fail.
	for _, p := range st.versions {
		p.ref.Sites = append([]string{"no-such-site"}, p.ref.Sites...)
	}
	r, err = st.run(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range r.reqs {
		if q.kind != kindQuery && q.out.err == nil {
			t.Errorf("request %d: wrong reference passed", i)
		}
	}

	st.close()
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("store directory %s survives the run: %v", dir, err)
	}
}

func TestReusedPipelineIsRejected(t *testing.T) {
	st, err := smallWorkload("td", "swift").setup(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := driver.FromSource(st.progs[0].src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runFresh(b, "td", coldConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := runFresh(b, "td", coldConfig()); !errors.Is(err, errReused) {
		t.Fatalf("second run on one Build: err = %v, want errReused", err)
	}
}

func TestStagedBuildMatchesFromSource(t *testing.T) {
	st, err := smallWorkload("swift", "td").setup(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range st.progs {
		want, err := driver.FromSource(p.src)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		got, err := stagedBuild(tr, 0, 1, p.src)
		if err != nil {
			t.Fatal(err)
		}
		if driver.ProgramDigest(got) != driver.ProgramDigest(want) {
			t.Errorf("%s: staged build lowers a different program", p.info.Name)
		}
		if got.TS.FrozenDigest() != want.TS.FrozenDigest() {
			t.Errorf("%s: staged build constructs a different client", p.info.Name)
		}
		self := tr.selfTimes()
		for _, name := range frontEndSpans[:7] {
			if len(self[name]) != 1 {
				t.Errorf("%s: %d %s spans, want 1", p.info.Name, len(self[name]), name)
			}
		}
	}
}

func TestCountsRepeatAtASeed(t *testing.T) {
	counted := []string{"core.steps", "core.path_edges", "core.work_units", "core.triggers", "core.sparse_pops", "lower.ir_nodes"}
	for _, w := range []*coldWorkload{smallWorkload("swift", "td"), smallWorkload("td", "swift")} {
		var runs [2]map[string]metric
		for i := range runs {
			st, err := w.setup(5, 2)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			r := st.run(0, tr)
			if r.failed != 0 {
				t.Fatalf("%s: %v", w.name, r.failures)
			}
			runs[i] = map[string]metric{}
			r.layers(tr, runs[i], map[string]ratio{})
		}
		for _, name := range counted {
			if runs[0][name] != runs[1][name] {
				t.Errorf("%s %s: %v then %v", w.name, name, runs[0][name], runs[1][name])
			}
		}
		if runs[0]["core.work_units"].Value == 0 {
			t.Errorf("%s: no work counted", w.name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	ms := time.Millisecond
	tr.spans = []span{
		{ID: 1, Req: 1, Name: "a.root", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Req: 1, Name: "b.child", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Req: 1, Name: "b.child", Start: 3 * ms, End: 6 * ms},
		{ID: 4, Req: 2, Name: "a.root", Start: 20 * ms, End: 22 * ms},
	}
	self := tr.selfTimes()
	if got, want := self["a.root"], []time.Duration{5 * ms, 2 * ms}; !reflect.DeepEqual(got, want) {
		t.Errorf("a.root self times %v, want %v", got, want)
	}
	if got, want := self["b.child"], []time.Duration{6 * ms}; !reflect.DeepEqual(got, want) {
		t.Errorf("b.child self times %v, want %v", got, want)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the reported metrics in step.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Name == "serve-edits" && !strings.Contains(w.Why, "limit 500 ms") {
			t.Errorf("serve-edits why %q does not state the %v SLO limit", w.Why, sloLimit)
		}
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, want %v", names, workloads)
	}
	pairs := func(xs []struct{ Name, Unit string }) [][2]string {
		var out [][2]string
		for _, x := range xs {
			out = append(out, [2]string{x.Name, x.Unit})
		}
		return out
	}
	if got := pairs(spec.EndToEnd); !reflect.DeepEqual(got, endToEndMetrics) {
		t.Errorf("end_to_end %v, want %v", got, endToEndMetrics)
	}
	if got := pairs(spec.PerLayer); !reflect.DeepEqual(got, perLayerMetrics) {
		t.Errorf("per_layer %v, want %v", got, perLayerMetrics)
	}
	if sloLimit != 500*time.Millisecond {
		t.Errorf("sloLimit %v; update the serve-edits why and this test together", sloLimit)
	}
}
