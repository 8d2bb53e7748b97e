package main

import (
	"fmt"
	"time"

	"swift/internal/core"
	"swift/internal/driver"
)

// shape is one kind of program in a cold workload's pool: a benchprog
// profile, an optional loop-nest override, and how many seeded variants of
// it the pool holds.
type shape struct {
	Profile  string
	LoopNest int
	Variants int
}

// coldWorkload is a closed loop with one client: each request builds a
// fresh pipeline from source, runs engine and takes the error report,
// then the next request starts. refEngine is the other engine, whose
// set-up verdict every request must reproduce.
type coldWorkload struct {
	name, engine, refEngine string
	pool                    []shape
}

var (
	// The paper's headline path on mid-size programs: the engine is most of
	// each request, the store and swiftd are never touched.
	coldHybrid = coldWorkload{
		name: "cold-hybrid", engine: "swift", refEngine: "td",
		pool: []shape{{"toba-s", 0, 48}},
	}
	// Top-down on both sides of the sparse scheduler's trade-off: small
	// shallow programs, where its fixed overhead shows, and loop nests,
	// where it batches most pops.
	coldTopdown = coldWorkload{
		name: "cold-topdown", engine: "td", refEngine: "swift",
		pool: []shape{{"jpat-p", 0, 30}, {"elevator", 0, 30}, {"deep-nest", 2, 40}},
	}
)

// coldConfig is the analysis configuration of every cold request: the
// defaults, k=5 and θ=1 (td ignores k).
func coldConfig() core.Config { return core.DefaultConfig() }

// coldState is a set-up cold workload: the pool in request order.
type coldState struct {
	w     *coldWorkload
	progs []*program
}

func (w *coldWorkload) setup(seed int64, workers int) (*coldState, error) {
	st := &coldState{w: w}
	gens := make([][]int64, len(w.pool))
	for k, sh := range w.pool {
		var err error
		if gens[k], err = stratifiedSeeds(seed, w.name, sh.Profile, sh.LoopNest, sh.Variants, workers); err != nil {
			return nil, err
		}
	}
	// Interleave the shapes so consecutive requests differ in size.
	for v := 0; ; v++ {
		added := false
		for k, sh := range w.pool {
			if v >= sh.Variants {
				continue
			}
			added = true
			st.progs = append(st.progs, &program{info: programInfo{
				Name:    fmt.Sprintf("%s/n%d#%d", sh.Profile, sh.LoopNest, v),
				Profile: sh.Profile, GenSeed: gens[k][v], LoopNest: sh.LoopNest,
			}})
		}
		if !added {
			break
		}
	}
	err := parallel(len(st.progs), workers, func(i int) error {
		p := st.progs[i]
		prof, err := profile(p.info.Profile, p.info.GenSeed, p.info.LoopNest)
		if err != nil {
			return err
		}
		if p.src, p.info.Lines, err = printed(prof); err != nil {
			return err
		}
		p.ref, _, err = buildReference(p.src, w.refEngine, coldConfig(), seed, &p.info)
		return err
	})
	return st, err
}

func (st *coldState) close() {}

// counters are a run's deterministic work counts, read from the public
// engine result.
type counters struct {
	Steps, PathEdges, WorkUnits, Triggers, SparsePops, IRNodes int64
	ViaBU, CallEvents, Sigma, SparseSteps, RegionHits, Regions int64
}

func countersOf(b *driver.Build, res *driver.Result) counters {
	c := counters{
		Steps:      int64(res.BUStats.Steps),
		WorkUnits:  int64(res.WorkUnits()),
		Triggers:   int64(len(res.Triggered)),
		IRNodes:    int64(irNodes(b)),
		ViaBU:      int64(res.CallsViaBU),
		CallEvents: int64(res.CallsViaBU + res.CallsViaTD),
		Sigma:      int64(res.CallsInSigma),
	}
	if td := res.TD; td != nil {
		c.Steps += int64(td.Steps)
		c.PathEdges = int64(td.NumPathEdges)
		if sp := td.Sparse; sp.Enabled {
			c.SparsePops = int64(sp.Pops)
			c.SparseSteps = int64(td.Steps)
			c.RegionHits = int64(sp.RegionHits)
			c.Regions = int64(sp.RegionHits + sp.RegionMisses + sp.RegionFallbacks)
		}
	}
	return c
}

func (c *counters) add(o counters) {
	c.Steps += o.Steps
	c.PathEdges += o.PathEdges
	c.WorkUnits += o.WorkUnits
	c.Triggers += o.Triggers
	c.SparsePops += o.SparsePops
	c.IRNodes += o.IRNodes
	c.ViaBU += o.ViaBU
	c.CallEvents += o.CallEvents
	c.Sigma += o.Sigma
	c.SparseSteps += o.SparseSteps
	c.RegionHits += o.RegionHits
	c.Regions += o.Regions
}

// coldRun is the raw outcome of one measured closed loop.
type coldRun struct {
	attempted, failed int
	failures          []string
	succeeded         int // untraced requests that passed the oracle
	elapsed           time.Duration
	// Per program: untraced and traced latencies (ms), and the traced
	// requests' counters and allocation.
	plain, traced [][]float64
	counts        []*counters
	allocMB       []float64
	mem           *peakMemory
}

func (r *coldRun) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// run drives the closed loop over whole passes of the pool until the
// duration has passed, so every program weighs the same in the latency
// distribution and p50 and p90 stay inside the shape groups the pool
// places them in. With a tracer, each program's requests alternate
// between traced and untraced, so the difference between the two is the
// tracing overhead; the loop then runs at least two passes, which traces
// every program at least once.
func (st *coldState) run(d time.Duration, tr *tracer) *coldRun {
	n := len(st.progs)
	r := &coldRun{plain: make([][]float64, n), traced: make([][]float64, n),
		counts: make([]*counters, n), mem: newPeakMemory()}
	minPasses := 1
	if tr != nil {
		minPasses = 2
	}
	cfg := coldConfig()
	start := time.Now()
	for req := 0; ; req++ {
		pass, i := req/n, req%n
		if i == 0 && pass >= minPasses && time.Since(start) >= d {
			break
		}
		if req > 0 {
			r.mem.sample((req - 1) / n) // after the previous request
		}
		p := st.progs[i]
		r.attempted++
		if tr == nil || (pass+i)%2 == 0 {
			t0 := time.Now()
			sites, err := analyze(p.src, st.w.engine, cfg)
			lat := ms(time.Since(t0))
			if err == nil {
				err = p.ref.check(sites)
			}
			if err != nil {
				r.fail("request %d (%s): %v", req, p.info.Name, err)
				continue
			}
			r.succeeded++
			r.plain[i] = append(r.plain[i], lat)
			continue
		}
		tq, err := analyzeTraced(tr, req+1, p.src, st.w.engine, cfg)
		if err == nil {
			err = p.ref.check(tq.sites)
		}
		if err == nil {
			c := countersOf(tq.build, tq.res)
			if prev := r.counts[i]; prev == nil {
				r.counts[i] = &c
			} else if *prev != c {
				err = fmt.Errorf("work counters differ between identical requests: %+v then %+v", *prev, c)
			}
		}
		if err != nil {
			r.fail("traced request %d (%s): %v", req, p.info.Name, err)
			continue
		}
		r.traced[i] = append(r.traced[i], ms(tq.latency))
		r.allocMB = append(r.allocMB, tq.allocMB)
	}
	r.elapsed = time.Since(start)
	r.mem.sample((r.attempted - 1) / n)
	return r
}

// traceOverheadPct compares, program by program, the median traced
// latency with the median untraced one.
func traceOverheadPct(plain, traced [][]float64) float64 {
	var p, t float64
	for i := range plain {
		if len(plain[i]) == 0 || len(traced[i]) == 0 {
			continue
		}
		p += median(plain[i])
		t += median(traced[i])
	}
	if p == 0 {
		return 0
	}
	return 100 * (t/p - 1)
}

// endToEnd renders the untraced run's end-to-end metrics. The latency
// percentiles are taken over the pool's programs, each at its median
// latency across the run's passes: a pass slowed by the host (CPU steal,
// a noisy neighbour) then moves no program's figure unless it covers half
// the run, where over single requests it would fill the top tenth.
func (r *coldRun) endToEnd(m map[string]metric) {
	var perProgram []float64
	for _, lat := range r.plain {
		if len(lat) > 0 {
			perProgram = append(perProgram, median(lat))
		}
	}
	m["latency_p50_ms"] = metric{quantile(perProgram, 0.5), "ms"}
	m["latency_p90_ms"] = metric{quantile(perProgram, 0.9), "ms"}
	m["throughput_per_s"] = metric{float64(r.succeeded) / r.elapsed.Seconds(), "1/s"}
	m["peak_rss_mb"] = metric{r.mem.mb(), "MB"}
}

// layers renders the traced run's per-layer metrics. Counts are summed
// over one pass of the pool, so they repeat exactly at a seed; timings
// are median self times per request.
func (r *coldRun) layers(tr *tracer, m map[string]metric, bases map[string]ratio) {
	self := tr.selfTimes()
	for _, name := range frontEndSpans {
		m[name+"_ms"] = metric{medianMS(self[name]), "ms"}
	}
	m["core.run_ms"] = metric{medianMS(self["core.run"]), "ms"}
	m["driver.report_ms"] = metric{medianMS(self["driver.report"]), "ms"}
	m["core.alloc_mb"] = metric{median(r.allocMB), "MB"}
	var c counters
	for _, pc := range r.counts {
		if pc != nil {
			c.add(*pc)
		}
	}
	m["lower.ir_nodes"] = metric{float64(c.IRNodes), "count"}
	m["core.steps"] = metric{float64(c.Steps), "count"}
	m["core.path_edges"] = metric{float64(c.PathEdges), "count"}
	m["core.work_units"] = metric{float64(c.WorkUnits), "count"}
	m["core.triggers"] = metric{float64(c.Triggers), "count"}
	m["core.sigma_fallbacks"] = metric{float64(c.Sigma), "count"}
	m["core.sparse_pops"] = metric{float64(c.SparsePops), "count"}
	setRatio(m, bases, "core.bu_reuse_ratio", ratio{c.ViaBU, c.CallEvents})
	setRatio(m, bases, "core.pops_per_step", ratio{c.SparsePops, c.SparseSteps})
	setRatio(m, bases, "core.region_hit_ratio", ratio{c.RegionHits, c.Regions})
	m["bench.trace_overhead_pct"] = metric{traceOverheadPct(r.plain, r.traced), "%"}
}

// frontEndSpans are the spans of stagedBuild plus the digest, in pipeline
// order.
var frontEndSpans = []string{
	"source.parse", "hir.validate", "pointer.analyze", "lower.lower",
	"typestate.new", "core.bind", "driver.build", "driver.digest",
}

func setRatio(m map[string]metric, bases map[string]ratio, name string, r ratio) {
	m[name] = metric{r.value(), "ratio"}
	bases[name] = r
}
