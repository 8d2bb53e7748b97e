// Command swift analyzes a mini-Java program with the SWIFT hybrid
// type-state analysis or one of its two conventional baselines.
//
// Usage:
//
//	swift [flags] program.mj
//
// The program file uses the mini-Java surface syntax of internal/source
// (see README.md). The tool builds the 0-CFA call graph, lowers the program
// to the command IR, runs the selected engine, and reports allocation sites
// whose tracked objects may reach a property error state, plus analysis
// statistics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"swift/internal/core"
	"swift/internal/driver"
	"swift/internal/ir"
)

func main() {
	var (
		engine  = flag.String("engine", "swift", "analysis engine: swift, swift-async, td or bu")
		k       = flag.Int("k", 5, "SWIFT trigger threshold k (distinct incoming states)")
		theta   = flag.Int("theta", 1, "SWIFT pruning width θ (relational cases kept)")
		timeout = flag.Duration("timeout", time.Minute, "wall-clock budget (0 = none)")
		edges   = flag.Int("max-path-edges", 20_000_000, "top-down path-edge budget")
		rels    = flag.Int("max-relations", 5_000_000, "bottom-up relation budget")
		stats   = flag.Bool("stats", false, "print per-procedure summary statistics")
		dumpBU  = flag.Bool("dump-summaries", false, "print bottom-up summaries (swift, swift-async and bu engines)")
		dumpIR  = flag.Bool("dump-ir", false, "print the lowered command IR and exit")
		dumpCG  = flag.Bool("dump-callgraph", false, "print the 0-CFA call graph and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: swift [flags] program.mj\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	opts := options{
		engine: *engine, k: *k, theta: *theta, timeout: *timeout,
		edges: *edges, rels: *rels, stats: *stats,
		dumpBU: *dumpBU, dumpIR: *dumpIR, dumpCG: *dumpCG,
	}
	if err := run(os.Stdout, flag.Arg(0), opts); err != nil {
		fmt.Fprintln(os.Stderr, "swift:", err)
		os.Exit(1)
	}
}

// options carries the parsed flags; factored out so tests can drive run.
type options struct {
	engine         string
	k, theta       int
	timeout        time.Duration
	edges, rels    int
	stats          bool
	dumpBU         bool
	dumpIR, dumpCG bool
}

func run(w io.Writer, path string, o options) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	b, err := driver.FromSource(string(src))
	if err != nil {
		return err
	}
	if o.dumpIR {
		fmt.Fprint(w, ir.Print(b.Lowered.Prog))
		return nil
	}
	if o.dumpCG {
		for _, m := range b.Pointer.ReachableMethods() {
			fmt.Fprintf(w, "%s\n", m.QName())
			proc := b.Lowered.Prog.Procs[m.QName()]
			if proc == nil {
				continue
			}
			for _, callee := range ir.Callees(proc.Body) {
				fmt.Fprintf(w, "  -> %s\n", callee)
			}
		}
		return nil
	}

	ps := b.Pointer.CollectStats()
	fmt.Fprintf(w, "program: %d reachable methods, %d classes, %d allocation sites, %d tracked\n",
		ps.ReachableMethods, ps.ReachableClasses, ps.Sites, len(b.Lowered.Track))

	cfg := core.DefaultConfig()
	cfg.K = o.k
	cfg.Theta = o.theta
	cfg.Timeout = o.timeout
	cfg.MaxPathEdges = o.edges
	cfg.MaxRelations = o.rels
	res, err := b.Run(o.engine, cfg)
	if err != nil {
		return err
	}
	if !res.Completed() {
		return fmt.Errorf("engine %s did not finish: %v", o.engine, res.Err)
	}
	fmt.Fprintf(w, "engine %s finished in %v\n", o.engine, res.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  top-down summaries: %d   bottom-up summaries: %d\n",
		res.TDSummaryTotal(), res.BUSummaryTotal())
	if o.engine == "swift" || o.engine == "swift-async" {
		fmt.Fprintf(w, "  bottom-up triggered on %d procedures; %d call events answered from summaries, %d analyzed top-down\n",
			len(res.Triggered), res.CallsViaBU, res.CallsViaTD)
	}

	errs, err := b.ErrorReport(res)
	if err != nil {
		return err
	}
	if len(errs) == 0 {
		fmt.Fprintln(w, "no type-state errors found")
	} else {
		fmt.Fprintf(w, "%d allocation site(s) may reach a property error state:\n", len(errs))
		for _, site := range errs {
			prop := b.Lowered.Track[site]
			name := "?"
			if prop != nil {
				name = prop.Name
			}
			fmt.Fprintf(w, "  %s (property %s)\n", site, name)
		}
	}

	if o.stats {
		type row struct {
			proc string
			n    int
		}
		var rows []row
		for proc := range res.TD.Summaries {
			rows = append(rows, row{proc, res.TD.SummaryCount(proc)})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].n != rows[j].n {
				return rows[i].n > rows[j].n
			}
			return rows[i].proc < rows[j].proc
		})
		fmt.Fprintln(w, "per-procedure top-down summaries:")
		for _, r := range rows {
			fmt.Fprintf(w, "  %6d  %s\n", r.n, r.proc)
		}
	}
	if o.dumpBU {
		var names []string
		for name := range res.BU {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "bottom-up summaries:")
		for _, name := range names {
			rs := res.BU[name]
			fmt.Fprintf(w, "  %s: %d relational case(s), %d ignored-set formula(s)\n",
				name, len(rs.Rels), len(rs.Sigma))
			for _, r := range rs.Rels {
				fmt.Fprintf(w, "    case %s\n", b.TS.RelString(r))
			}
			for _, q := range rs.Sigma {
				fmt.Fprintf(w, "    Σ    %s\n", b.TS.FormulaString(q))
			}
		}
	}
	return nil
}
