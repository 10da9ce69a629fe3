// Package cli implements the three command-line tools (fpexp, fpgen,
// fpplace) as testable functions: each Run* takes an argument vector and
// output writers and returns an error instead of exiting, so the thin
// main() wrappers in cmd/ stay one line and the behaviour is covered by
// unit tests.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/acyclic"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
)

// RunFpexp is the fpexp command: run paper-reproduction experiments.
func RunFpexp(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fpexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp   = fs.String("exp", "all", "experiment id to run, comma-separated ids, or 'all'")
		list  = fs.Bool("list", false, "list experiment ids and exit")
		seed  = fs.Int64("seed", 1, "random seed for generators and baselines")
		reps  = fs.Int("reps", 0, "repetitions for randomized baselines (default: 25, or 5 with -quick)")
		quick = fs.Bool("quick", false, "shrink datasets for a fast smoke run")
		csv   = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		plot  = fs.Bool("plot", false, "also draw FR figures as ASCII plots")
		procs = fs.Int("procs", 1, "parallel marginal-gain workers for the greedy algorithms (series are identical at any setting)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}
	opt := experiments.Options{Seed: *seed, Reps: *reps, Quick: *quick, Parallelism: *procs}
	ids := experiments.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		rep, err := experiments.Run(strings.TrimSpace(id), opt)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Fprintf(stdout, "# %s: %s\n%s\n", rep.ID, rep.Title, rep.CSV())
			continue
		}
		fmt.Fprintln(stdout, rep)
		if *plot && rep.Plot != "" {
			fmt.Fprintln(stdout, rep.Plot)
		}
	}
	return nil
}

// RunFpgen is the fpgen command: generate datasets as edge-list files.
func RunFpgen(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fpgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var p gen.Params
	var (
		dataset = fs.String("dataset", "", strings.Join(gen.Names(), " | "))
		out     = fs.String("out", "-", "output file ('-' for stdout)")
	)
	fs.Int64Var(&p.Seed, "seed", 1, "generator seed (0 means 1)")
	datasetFlags(fs, &p)
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, sources, err := gen.Build(*dataset, p)
	if err != nil {
		return fmt.Errorf("fpgen: %w", err)
	}

	w := stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("fpgen: %w", err)
		}
		defer f.Close()
		w = f
	}
	if err := graph.WriteEdgeList(w, g); err != nil {
		return fmt.Errorf("fpgen: %w", err)
	}
	fmt.Fprintf(stderr, "fpgen: %d nodes, %d edges, source(s) %v\n", g.N(), g.M(), sources)
	return nil
}

// datasetFlags registers one flag per dataset-table parameter, bound to
// its field of p. A flag defaults to 0, which gives each dataset its own
// default; the help text lists every dataset that reads the flag.
func datasetFlags(fs *flag.FlagSet, p *gen.Params) {
	for _, d := range gen.Datasets() {
		for _, prm := range d.Params {
			help := fmt.Sprintf("%s: %s (default %v)", d.Name, prm.Usage, prm.Def)
			if f := fs.Lookup(prm.Name); f != nil {
				f.Usage += "; " + help
				continue
			}
			switch v := p.Field(prm.Name).(type) {
			case *int:
				fs.IntVar(v, prm.Name, 0, help)
			case *float64:
				fs.Float64Var(v, prm.Name, 0, help)
			}
		}
	}
}

// RunFpplace is the fpplace command: place filters on one edge-list graph,
// or — with multiple input files — on all of them as one batched gang
// through the process-wide scheduler (core.PlaceBatch).
func RunFpplace(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fpplace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in        = fs.String("in", "", "edge-list input file ('-' for stdin); additional files may be passed as positional arguments for batched placement")
		k         = fs.Int("k", 10, "filter budget")
		algo      = fs.String("algo", "gall", algoUsage())
		engine    = fs.String("engine", "float", "float | big (exact)")
		source    = fs.Int("source", -1, "source node id (-1: all in-degree-0 nodes, or best root with -acyclic)")
		acyclicF  = fs.Bool("acyclic", false, "extract a maximal acyclic subgraph first (paper §4.3)")
		seed      = fs.Int64("seed", 1, "seed for randomized baselines")
		procs     = fs.Int("procs", 1, "parallel marginal-gain workers (placement is identical at any setting)")
		quiet     = fs.Bool("q", false, "print only the filter node list")
		showStats = fs.Bool("stats", false, "print graph degree statistics")
		impacts   = fs.Bool("impacts", false, "print the per-node impact table instead of placing filters")
		weighted  = fs.Bool("weighted", false, "input is 'u v p' with relay probabilities (probabilistic model; float engine only)")
		quality   = fs.Float64("quality", 0, "approx algorithm: target relative estimate error in (0, 0.5] (0 = engine default)")
		dotOut    = fs.String("dot", "", "also write a Graphviz DOT file with the placement highlighted")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	inputs := fs.Args()
	if *in != "" {
		inputs = append([]string{*in}, inputs...)
	}
	if len(inputs) == 0 {
		return fmt.Errorf("fpplace: -in (or positional input files) required")
	}
	// The options are built once, before any input is read, so the solo
	// and batch paths read every flag alike and reject a bad one with the
	// same error.
	var opts core.Options
	if *algo != "tree" {
		var err error
		if opts, err = placeOptions(*algo, *procs, *seed, *quality); err != nil {
			return fmt.Errorf("fpplace: %w", err)
		}
	}
	if err := flow.CheckEngine(*engine, *weighted); err != nil {
		return fmt.Errorf("fpplace: %w", err)
	}
	if *weighted && *acyclicF {
		return fmt.Errorf("fpplace: -weighted requires an acyclic input (no -acyclic)")
	}
	l := &loader{stdin: stdin, stderr: stderr, engine: *engine, source: *source, weighted: *weighted, acyclic: *acyclicF}
	if len(inputs) > 1 {
		if *acyclicF || *weighted || *impacts || *dotOut != "" || *algo == "tree" {
			return fmt.Errorf("fpplace: batched placement over %d files supports plain placement only (no -acyclic, -weighted, -impacts, -dot or tree)", len(inputs))
		}
		if slices.Contains(inputs, "-") {
			return fmt.Errorf("fpplace: stdin ('-') cannot be combined with batched placement; pass files only")
		}
		return runFpplaceBatch(inputs, l, *k, opts, *quiet, stdout, stderr)
	}
	g, ev, err := l.load(inputs[0])
	if err != nil {
		return fmt.Errorf("fpplace: %w", err)
	}
	if *showStats {
		ins, outs := g.InDegreeStats(), g.OutDegreeStats()
		fmt.Fprintf(stderr, "fpplace: %d nodes, %d edges; indeg mean %.2f max %d; outdeg mean %.2f max %d; %d sinks\n",
			g.N(), g.M(), ins.Mean, ins.Max, outs.Mean, outs.Max, len(g.Sinks()))
	}

	if *impacts {
		fmt.Fprintln(stdout, "node  impact")
		for v, gn := range ev.Impacts(nil) {
			if gn > 0 {
				fmt.Fprintf(stdout, "%-5s %.6g\n", g.Label(v), gn)
			}
		}
		return nil
	}

	var filters []int
	var phiCI *flow.MCResult
	var coarsenStats *flow.CoarsenStats
	if *algo == "tree" {
		sources := ev.Model().Sources()
		if len(sources) != 1 {
			return fmt.Errorf("fpplace: tree DP needs exactly one source, have %d", len(sources))
		}
		filters, _, err = core.TreeDP(g, sources[0], *k)
		if err != nil {
			return fmt.Errorf("fpplace: %w", err)
		}
	} else {
		res, err := core.Place(context.Background(), ev, *k, opts)
		if err != nil {
			return fmt.Errorf("fpplace: %w", err)
		}
		filters = res.Filters
		phiCI = res.PhiCI
		coarsenStats = res.CoarsenStats
	}

	mask := flow.MaskOf(g.N(), filters)
	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			return fmt.Errorf("fpplace: %w", err)
		}
		err = graph.WriteDOT(f, g, "placement", mask)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("fpplace: %w", err)
		}
	}
	if *quiet {
		for _, v := range filters {
			fmt.Fprintln(stdout, g.Label(v))
		}
		return nil
	}
	fmt.Fprintf(stdout, "algorithm:  %s\n", *algo)
	fmt.Fprintf(stdout, "filters:    %d", len(filters))
	if len(filters) > 0 {
		fmt.Fprintf(stdout, " →")
		for _, v := range filters {
			fmt.Fprintf(stdout, " %s", g.Label(v))
		}
	}
	fmt.Fprintln(stdout)
	obj := flow.Evaluate(ev, mask)
	fmt.Fprintf(stdout, "Φ(∅,V):     %.6g\n", obj.PhiEmpty)
	fmt.Fprintf(stdout, "Φ(A,V):     %.6g\n", obj.PhiA)
	fmt.Fprintf(stdout, "F(A):       %.6g\n", obj.F)
	fmt.Fprintf(stdout, "FR(A):      %.4f\n", obj.FR)
	if phiCI != nil {
		fmt.Fprintf(stdout, "Φ̂(A) CI95:  %.6g ± %.3g (%d sampled passes)\n", phiCI.Mean, phiCI.CI95(), phiCI.Runs)
	}
	if coarsenStats != nil {
		fmt.Fprintf(stdout, "coarsen:    %d → %d nodes, %d → %d edges\n",
			coarsenStats.NodesBefore, coarsenStats.NodesAfter,
			coarsenStats.EdgesBefore, coarsenStats.EdgesAfter)
	}
	return nil
}

// algoUsage is the -algo help text: every strategy's short name from the
// core table, plus the tree DP.
func algoUsage() string {
	var names []string
	for _, s := range core.StrategyTable() {
		names = append(names, s.Short)
	}
	return strings.Join(append(names, "tree"), " | ") + " (core names such as greedy-all are accepted too)"
}

// placeOptions resolves -algo and the placement flags into validated core
// options. The solo and batch paths share them.
func placeOptions(algo string, procs int, seed int64, quality float64) (core.Options, error) {
	info, err := core.LookupStrategy(algo)
	if err != nil {
		return core.Options{}, err
	}
	opts := core.Options{
		Strategy:    info.Name,
		Parallelism: procs,
		Seed:        seed,
		Quality:     quality,
		SampleSeed:  seed,
	}
	return opts, opts.Validate()
}

// loader reads each fpplace input: the solo and batch runs turn a file
// into its graph, model and engine by this one path.
type loader struct {
	stdin             io.Reader
	stderr            io.Writer
	engine            string
	source            int
	weighted, acyclic bool
}

// load reads the edge list at path ('-' for stdin) and builds its engine.
// The model's sources are the -source node, or every in-degree-0 node;
// with -acyclic the maximal acyclic subgraph is extracted first (paper
// §4.3), rooted at -source or at the best root.
func (l *loader) load(path string) (*graph.Digraph, flow.Evaluator, error) {
	r := l.stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		r = f
	}
	var (
		g      *graph.Digraph
		weight func(u, v int) float64
		err    error
	)
	if l.weighted {
		g, weight, err = graph.ReadWeightedEdgeList(r)
	} else {
		g, err = graph.ReadEdgeList(r)
	}
	if err != nil {
		return nil, nil, err
	}
	sources := []int{}
	if l.source >= 0 {
		sources = []int{l.source}
	}
	if l.acyclic {
		var st acyclic.BuildStats
		if l.source >= 0 {
			g, st, err = acyclic.Build(g, l.source)
		} else {
			var root int
			g, root, st, err = acyclic.BestRoot(g)
			sources = []int{root}
			if err == nil {
				fmt.Fprintf(l.stderr, "fpplace: best acyclic root = %s\n", g.Label(root))
			}
		}
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(l.stderr, "fpplace: acyclic: visited %d nodes, %d tree + %d extra edges, %d rejected\n",
			st.Visited, st.TreeEdges, st.ExtraEdges, st.Rejected)
	}
	m, err := flow.NewModel(g, sources)
	if err != nil {
		return nil, nil, err
	}
	if weight != nil {
		m = m.WithWeights(weight)
	}
	ev, err := flow.NewEngine(l.engine, m)
	return g, ev, err
}

// runFpplaceBatch places the same options on every input file as one gang
// through core.PlaceBatch. Results per graph are bit-identical to a solo
// fpplace run on that file; only scheduling is shared.
func runFpplaceBatch(inputs []string, l *loader, k int, opts core.Options, quiet bool, stdout, stderr io.Writer) error {
	graphs := make([]*graph.Digraph, len(inputs))
	evs := make([]flow.Evaluator, len(inputs))
	for i, path := range inputs {
		g, ev, err := l.load(path)
		if err != nil {
			return fmt.Errorf("fpplace: %s: %w", path, err)
		}
		graphs[i], evs[i] = g, ev
	}
	results, err := core.PlaceBatch(context.Background(), evs, k, opts)
	if err != nil {
		return fmt.Errorf("fpplace: %w", err)
	}
	for i, res := range results {
		g, ev := graphs[i], evs[i]
		if quiet {
			for _, v := range res.Filters {
				fmt.Fprintf(stdout, "%s\t%s\n", inputs[i], g.Label(v))
			}
			continue
		}
		mask := flow.MaskOf(g.N(), res.Filters)
		fmt.Fprintf(stdout, "=== %s (%d nodes, %d edges)\n", inputs[i], g.N(), g.M())
		fmt.Fprintf(stdout, "filters:    %d", len(res.Filters))
		if len(res.Filters) > 0 {
			fmt.Fprintf(stdout, " →")
			for _, v := range res.Filters {
				fmt.Fprintf(stdout, " %s", g.Label(v))
			}
		}
		fmt.Fprintln(stdout)
		obj := flow.Evaluate(ev, mask)
		fmt.Fprintf(stdout, "F(A):       %.6g\n", obj.F)
		fmt.Fprintf(stdout, "FR(A):      %.4f\n", obj.FR)
	}
	fmt.Fprintf(stderr, "fpplace: batch-placed %d graphs (algo %s, k=%d)\n", len(inputs), opts.Strategy, k)
	return nil
}
