package main

import (
	"errors"
	"fmt"
	"time"

	"swift/internal/core"
	"swift/internal/driver"
	"swift/internal/hir"
	"swift/internal/lower"
	"swift/internal/pointer"
	"swift/internal/source"
	"swift/internal/typestate"
)

var errReused = errors.New("pipeline is not fresh: a driver.Build was reused across requests")

// analyze is one untraced request: a fresh pipeline from source, one
// engine run and its error report, exactly as driver.FromSource →
// Build.Run → ErrorReport.
func analyze(src, engine string, cfg core.Config) ([]string, error) {
	b, err := driver.FromSource(src)
	if err != nil {
		return nil, err
	}
	return runFresh(b, engine, cfg)
}

func runFresh(b *driver.Build, engine string, cfg core.Config) ([]string, error) {
	if !b.TS.Fresh() {
		return nil, errReused
	}
	res, err := b.Run(engine, cfg)
	if err != nil {
		return nil, err
	}
	if res.Err != nil {
		return nil, fmt.Errorf("%s run did not complete: %w", engine, res.Err)
	}
	return b.ErrorReport(res)
}

// tracedRequest is what a traced request leaves for the per-layer metrics.
type tracedRequest struct {
	build   *driver.Build
	res     *driver.Result
	sites   []string
	allocMB float64
	latency time.Duration // of the root span
}

// analyzeTraced is analyze with a span around every call into a layer:
// the front end stage by stage (stagedBuild), the engine run and the
// report, under one root span. The digest the server would key a cached
// result by is timed afterwards, outside the request.
func analyzeTraced(tr *tracer, req int, src, engine string, cfg core.Config) (*tracedRequest, error) {
	start := time.Now()
	root := tr.begin("bench.request", 0, req)
	b, err := stagedBuild(tr, root, req, src)
	if err != nil {
		tr.end(root)
		return nil, err
	}
	if !b.TS.Fresh() {
		tr.end(root)
		return nil, errReused
	}
	out := &tracedRequest{build: b}
	s := tr.begin("core.run", root, req)
	before := heapAllocBytes()
	out.res, err = b.Run(engine, cfg)
	out.allocMB = float64(heapAllocBytes()-before) / (1 << 20)
	tr.end(s)
	if err == nil && out.res.Err != nil {
		err = fmt.Errorf("%s run did not complete: %w", engine, out.res.Err)
	}
	if err == nil {
		s = tr.begin("driver.report", root, req)
		out.sites, err = b.ErrorReport(out.res)
		tr.end(s)
	}
	tr.end(root)
	out.latency = time.Since(start)
	if err != nil {
		return nil, err
	}
	s = tr.begin("driver.digest", 0, req)
	_ = driver.ResultKey(b, engine, cfg) // timed for its cost only
	tr.end(s)
	return out, nil
}

// stagedBuild performs driver.FromSource one stage at a time, each under
// its own span below a driver.build span. It must build exactly what
// FromSource builds; the decomposition test pins that by digest.
func stagedBuild(tr *tracer, parent, req int, src string) (*driver.Build, error) {
	bs := tr.begin("driver.build", parent, req)
	defer tr.end(bs)
	step := func(name string, f func() error) error {
		s := tr.begin(name, bs, req)
		defer tr.end(s)
		return f()
	}
	var (
		prog *hir.Program
		pts  *pointer.Result
		low  *lower.Output
		ts   *typestate.Analysis
		ca   *core.Analysis[typestate.AbsID, typestate.RelID, typestate.FormulaID]
	)
	if err := step("source.parse", func() (err error) { prog, err = source.Parse(src); return }); err != nil {
		return nil, err
	}
	if err := step("hir.validate", prog.Validate); err != nil {
		return nil, err
	}
	if err := step("pointer.analyze", func() (err error) { pts, err = pointer.Analyze(prog); return }); err != nil {
		return nil, err
	}
	if err := step("lower.lower", func() (err error) { low, err = lower.Lower(prog, pts); return }); err != nil {
		return nil, err
	}
	if err := step("typestate.new", func() (err error) {
		ts, err = typestate.NewAnalysis(low.Prog, low.Track, pts)
		return
	}); err != nil {
		return nil, err
	}
	if err := step("core.bind", func() (err error) {
		ca, err = core.NewAnalysis[typestate.AbsID, typestate.RelID, typestate.FormulaID](ts, low.Prog)
		return
	}); err != nil {
		return nil, err
	}
	return &driver.Build{HIR: prog, Pointer: pts, Lowered: low, TS: ts, Core: ca}, nil
}
