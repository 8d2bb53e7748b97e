package main

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"swift/internal/benchprog"
	"swift/internal/core"
	"swift/internal/driver"
	"swift/internal/hir"
	"swift/internal/interp"
	"swift/internal/ir"
)

// programInfo is the provenance of one generated program.
type programInfo struct {
	Name     string `json:"name"`
	Profile  string `json:"profile"`
	GenSeed  int64  `json:"gen_seed"`
	LoopNest int    `json:"loop_nest"`
	Edits    string `json:"edits,omitempty"`
	Lines    int    `json:"lines"`
	IRNodes  int    `json:"ir_nodes"`
	Tracked  int    `json:"tracked_sites"`
}

// program is one benchmark input: mini-Java source and the verdict every
// analysis of it must reproduce.
type program struct {
	info programInfo
	src  string
	ref  verdict
}

// deriveSeed maps the workload seed and a slot label to a generator seed,
// so every slot of every workload gets its own deterministic stream.
func deriveSeed(seed int64, parts ...any) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range parts {
		fmt.Fprint(h, "/", p)
	}
	return int64(h.Sum64() & (1<<62 - 1))
}

// profile returns the named benchprog profile re-seeded and re-nested.
func profile(name string, genSeed int64, loopNest int) (benchprog.Profile, error) {
	p, ok := benchprog.ProfileByName(name)
	if !ok {
		return p, fmt.Errorf("unknown benchprog profile %q", name)
	}
	p.Seed = genSeed
	if loopNest > 0 {
		p.LoopNest = loopNest
	}
	return p, nil
}

// candidatesPerProgram is how many generated programs each pool slot is
// chosen from; see stratifiedSeeds.
const candidatesPerProgram = 4

// stratifiedSeeds returns n generator seeds for the named profile, drawn
// from the workload seed, whose programs spread evenly over the sizes the
// generator makes: it generates candidatesPerProgram·n candidates, orders
// them by IR size and keeps the middle one of each run of
// candidatesPerProgram. Independent draws would let the median or the
// tenth-largest program of a small pool move by 10–15 % between seeds;
// this way a seed changes which programs run, but hardly the pool's size
// quantiles. The seeds come back in a seeded random order.
func stratifiedSeeds(seed int64, label, name string, loopNest, n, workers int) ([]int64, error) {
	type candidate struct {
		gen   int64
		nodes int
	}
	cands := make([]candidate, candidatesPerProgram*n)
	err := parallel(len(cands), workers, func(i int) error {
		gen := deriveSeed(seed, label, name, loopNest, "candidate", i)
		prof, err := profile(name, gen, loopNest)
		if err != nil {
			return err
		}
		src, _, err := printed(prof)
		if err != nil {
			return err
		}
		b, err := driver.FromSource(src)
		if err != nil {
			return fmt.Errorf("%s candidate %d: %w", name, i, err)
		}
		cands[i] = candidate{gen, irNodes(b)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(cands, func(a, b candidate) int {
		if a.nodes != b.nodes {
			return a.nodes - b.nodes
		}
		return cmp.Compare(a.gen, b.gen)
	})
	seeds := make([]int64, n)
	for j := range seeds {
		seeds[j] = cands[j*candidatesPerProgram+candidatesPerProgram/2].gen
	}
	rng := rand.New(rand.NewSource(deriveSeed(seed, label, name, loopNest, "order")))
	rng.Shuffle(n, func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
	return seeds, nil
}

// irNodes is the size of a lowered program: its primitive, call, choice
// and loop commands.
func irNodes(b *driver.Build) int {
	st := ir.CollectStats(b.Lowered.Prog)
	return st.Prims + st.Calls + st.Choices + st.Loops
}

// concreteRuns is how many seeded interpreter executions back each
// reference's soundness check.
const concreteRuns = 8

// buildReference analyzes src on a fresh pipeline under engine and returns
// the verdict: the engine's error report, the error sites that seeded
// concrete executions reach (which must be a subset of the report), and
// the result tables digest. It also fills the size fields of info.
func buildReference(src, engine string, cfg core.Config, seed int64, info *programInfo) (verdict, *driver.Build, error) {
	b, err := driver.FromSource(src)
	if err != nil {
		return verdict{}, nil, fmt.Errorf("%s: build: %w", info.Name, err)
	}
	res, err := b.Run(engine, cfg)
	if err != nil {
		return verdict{}, nil, fmt.Errorf("%s: %s run: %w", info.Name, engine, err)
	}
	if res.Err != nil {
		return verdict{}, nil, fmt.Errorf("%s: reference %s run did not complete: %w", info.Name, engine, res.Err)
	}
	sites, err := b.ErrorReport(res)
	if err != nil {
		return verdict{}, nil, fmt.Errorf("%s: %w", info.Name, err)
	}
	v := verdict{Sites: sites, Digest: driver.ResultTablesDigest(b, res)}
	reached := map[string]bool{}
	for i := 0; i < concreteRuns; i++ {
		cr, err := interp.New(b.Lowered.Prog, b.Lowered.Track, interp.DefaultConfig(deriveSeed(seed, info.Name, "interp", i))).Run()
		if err != nil {
			return verdict{}, nil, fmt.Errorf("%s: concrete run: %w", info.Name, err)
		}
		for _, s := range cr.ErrorSites {
			reached[s] = true
		}
	}
	for s := range reached {
		v.Concrete = append(v.Concrete, s)
	}
	slices.Sort(v.Concrete)
	if err := v.check(sites); err != nil {
		return verdict{}, nil, fmt.Errorf("%s: reference %s verdict is unsound: %w", info.Name, engine, err)
	}
	info.IRNodes = irNodes(b)
	info.Tracked = len(b.TS.TrackedSites())
	return v, b, nil
}

// parallel runs f(0..n-1) on up to workers goroutines and returns the
// first error.
func parallel(n, workers int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// printed renders a generated program as mini-Java source.
func printed(p benchprog.Profile, edits ...benchprog.Edit) (string, int, error) {
	prog, err := benchprog.GenerateEdited(p, edits...)
	if err != nil {
		return "", 0, err
	}
	src := hir.Print(prog)
	return src, strings.Count(src, "\n"), nil
}
