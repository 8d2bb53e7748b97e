// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed for a fixed time, checks every verdict against
// references built during set-up, and prints one JSON result line: the
// end-to-end metrics, or with -trace 1 the per-layer metrics of a traced
// run. See README.md in this directory for the workloads, the metrics and
// the layer each one measures.
//
//	bash perfbench/run.sh --workload cold-hybrid --seed 1 --seconds 26 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is the seed kept out of tuning: a later performance claim
// must also hold on it.
const heldOutSeed = 9001

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// endToEndMetrics and perLayerMetrics name every reported metric with its
// unit, in BENCHMARK.json order. A metric a workload does not exercise
// reads 0.
var endToEndMetrics = [][2]string{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = [][2]string{
	{"source.parse_ms", "ms"},
	{"hir.validate_ms", "ms"},
	{"pointer.analyze_ms", "ms"},
	{"lower.lower_ms", "ms"},
	{"typestate.new_ms", "ms"},
	{"core.bind_ms", "ms"},
	{"driver.build_ms", "ms"},
	{"driver.digest_ms", "ms"},
	{"lower.ir_nodes", "count"},
	{"core.run_ms", "ms"},
	{"core.alloc_mb", "MB"},
	{"core.steps", "count"},
	{"core.path_edges", "count"},
	{"core.work_units", "count"},
	{"core.triggers", "count"},
	{"core.bu_reuse_ratio", "ratio"},
	{"core.sigma_fallbacks", "count"},
	{"core.sparse_pops", "count"},
	{"core.pops_per_step", "ratio"},
	{"core.region_hit_ratio", "ratio"},
	{"driver.report_ms", "ms"},
	{"driver.summary_hit_ratio", "ratio"},
	{"driver.restored_runs", "count"},
	{"store.mem_hit_ratio", "ratio"},
	{"store.disk_hits", "count"},
	{"store.puts", "count"},
	{"query.memo_hit_ratio", "ratio"},
	{"query.slice_work", "count"},
	{"swiftd.query_ms", "ms"},
	{"swiftd.analyze_hit_ms", "ms"},
	{"swiftd.analyze_miss_ms", "ms"},
	{"swiftd.result_hit_ratio", "ratio"},
	{"swiftd.engine_runs", "count"},
	{"swiftd.coalesced", "count"},
	{"swiftd.shed", "count"},
	{"swiftd.inflight_peak", "count"},
	{"bench.late_p90_ms", "ms"},
	{"bench.slo_miss_ratio", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}

var workloads = []string{"cold-hybrid", "cold-topdown", "serve-edits"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	out      string // directory for the trace file and temporary stores
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var trace int
	fl.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fl.Int64Var(&o.seed, "seed", 1, "workload seed; inputs are a function of it")
	fl.IntVar(&o.seconds, "seconds", 10, "how long the run measures")
	fl.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	fl.StringVar(&o.out, "out", ".bench_build", "directory for the trace file and temporary stores")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	if !known || fl.NArg() > 0 || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(workloads, ","))
		return 2
	}
	o.traced = trace == 1

	rep, err := measure(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, f := range rep.Summary.Failures {
		fmt.Fprintf(stderr, "perfbench: %s: FAILED %s\n", o.workload, f)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"summary": rep.Summary}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(rep.Result); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if rep.Result.Failed > 0 {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summary is the provenance and diagnostics line printed before it.
type summary struct {
	Workload     string              `json:"workload"`
	Seed         int64               `json:"seed"`
	HeldOutSeed  int64               `json:"held_out_seed"`
	Traced       bool                `json:"traced"`
	Seconds      int                 `json:"seconds"`
	GoVersion    string              `json:"go_version"`
	GOMAXPROCS   int                 `json:"gomaxprocs"`
	NProc        int                 `json:"nproc"`
	Commit       string              `json:"commit"`
	SourceSHA256 string              `json:"source_sha256"`
	SetupS       []float64           `json:"setup_s_each"`
	FailRatio    float64             `json:"fail_ratio"`
	SLOMissRatio float64             `json:"slo_miss_ratio"`
	RatioBases   map[string][2]int64 `json:"ratio_bases,omitempty"`
	TraceFile    string              `json:"trace_file,omitempty"`
	Failures     []string            `json:"failures,omitempty"`
	Programs     []programInfo       `json:"programs"`
}

type report struct {
	Summary summary
	Result  result
}

// measure sets the workload up, runs it and renders the report.
func measure(o options) (*report, error) {
	nproc := runtime.NumCPU()
	sum := summary{
		Workload: o.workload, Seed: o.seed, HeldOutSeed: heldOutSeed, Traced: o.traced,
		Seconds: o.seconds, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: nproc, Commit: commit(), SourceSHA256: sourceDigest("."),
	}
	m := map[string]metric{}
	bases := map[string]ratio{}
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	d := time.Duration(o.seconds) * time.Second
	var attempted, failed, sloMissed int

	switch o.workload {
	case "serve-edits":
		st, times, err := setUp(func() (*serveState, error) {
			return serveSetup(o.seed, float64(o.seconds), nproc, filepath.Join(o.out, "tmp"))
		})
		if err != nil {
			return nil, err
		}
		defer st.close()
		sum.SetupS = times
		for _, p := range st.versions {
			sum.Programs = append(sum.Programs, p.info)
		}
		r, err := st.run(nproc, tr)
		if err != nil {
			return nil, err
		}
		attempted = len(r.reqs)
		for i, q := range r.reqs {
			if q.out.err != nil {
				failed++
				if len(sum.Failures) < 10 {
					sum.Failures = append(sum.Failures, fmt.Sprintf("request %d: %v", i, q.out.err))
				}
			}
		}
		sloMissed = r.sloMisses()
		if o.traced {
			r.layers(tr, m, bases)
			if err := st.frontEnd(tr, len(r.reqs)+1, m); err != nil {
				return nil, err
			}
		} else {
			r.endToEnd(m)
		}
	default:
		w := coldHybrid
		if o.workload == coldTopdown.name {
			w = coldTopdown
		}
		st, times, err := setUp(func() (*coldState, error) { return w.setup(o.seed, nproc) })
		if err != nil {
			return nil, err
		}
		sum.SetupS = times
		for _, p := range st.progs {
			sum.Programs = append(sum.Programs, p.info)
		}
		r := st.run(d, tr)
		attempted, failed, sloMissed = r.attempted, r.failed, r.failed
		sum.Failures = r.failures
		if o.traced {
			r.layers(tr, m, bases)
		} else {
			r.endToEnd(m)
		}
	}

	sum.FailRatio = float64(failed) / float64(max(attempted, 1))
	sum.SLOMissRatio = float64(sloMissed) / float64(max(attempted, 1))
	want := endToEndMetrics
	if o.traced {
		want = perLayerMetrics
		m["bench.slo_miss_ratio"] = metric{sum.SLOMissRatio, "ratio"}
		sum.RatioBases = map[string][2]int64{}
		for name, r := range bases {
			sum.RatioBases[name] = [2]int64{r.Num, r.Den}
		}
		sum.TraceFile = filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := tr.writeChrome(sum.TraceFile, sum); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	} else {
		m["setup_s"] = metric{median(sum.SetupS), "s"}
	}
	out := make(map[string]metric, len(want))
	for _, nu := range want {
		v := m[nu[0]]
		out[nu[0]] = metric{v.Value, nu[1]}
	}
	return &report{Summary: sum, Result: result{
		Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: out,
	}}, nil
}

// setUp runs set-up setupRepeats times and keeps the last state; the
// earlier ones are closed before the next starts. It returns each
// set-up's duration.
func setUp[T interface{ close() }](f func() (T, error)) (T, []float64, error) {
	var st T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			st.close()
		}
		runtime.GC()
		t0 := time.Now()
		next, err := f()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		st = next
	}
	return st, times, nil
}

// commit is the VCS revision the binary was built from, when the build
// had one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest identifies the analysed code without version control: a
// SHA-256 over go.mod and every .go file under internal/ and cmd/ of the
// module rooted at root.
func sourceDigest(root string) string {
	var files []string
	for _, dir := range []string{"internal", "cmd"} {
		// The callback never fails; an unreadable tree just hashes fewer files.
		_ = filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		blob, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(blob))
		h.Write(blob)
	}
	return hex.EncodeToString(h.Sum(nil))
}
