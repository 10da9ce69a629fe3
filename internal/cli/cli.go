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
	var (
		dataset  = fs.String("dataset", "", "quote | twitter | citation | layered | dag | powerlaw | tree | chain | deep | fig1 | fig2 | fig3")
		out      = fs.String("out", "-", "output file ('-' for stdout)")
		seed     = fs.Int64("seed", 1, "generator seed")
		scale    = fs.Float64("scale", 1, "twitter: level-size scale in (0,1]")
		x        = fs.Float64("x", 1, "layered: edge-probability numerator")
		y        = fs.Float64("y", 4, "layered: edge-probability base")
		levels   = fs.Int("levels", 10, "layered: number of levels")
		perLevel = fs.Int("perlevel", 100, "layered: expected nodes per level")
		n        = fs.Int("n", 1000, "dag/powerlaw/tree/chain/deep: node count")
		p        = fs.Float64("p", 0.01, "dag: edge probability; tree: source-link probability")
		epn      = fs.Int("epn", 3, "powerlaw: average edges per node")
		chainLen = fs.Int("chainlen", 8, "chain: mean relay-chain length")
		depth    = fs.Int("depth", 50, "deep: level count")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var g *graph.Digraph
	var sources []int
	single := func(gg *graph.Digraph, s int) {
		g, sources = gg, []int{s}
	}
	switch *dataset {
	case "quote":
		single(gen.QuoteLike(*seed))
	case "twitter":
		if *scale <= 0 || *scale > 1 {
			return fmt.Errorf("fpgen: -scale %v outside (0,1]", *scale)
		}
		single(gen.TwitterLike(*scale, *seed))
	case "citation":
		single(gen.CitationLike(*seed))
	case "layered":
		single(gen.Layered(*levels, *perLevel, *x, *y, *seed))
	case "dag":
		single(gen.RandomDAG(*n, *p, *seed))
	case "powerlaw":
		single(gen.PowerLawDAG(*n, *epn, *seed))
	case "tree":
		single(gen.RandomCTree(*n, *p, *seed))
	case "chain":
		single(gen.ChainDAG(*n, *chainLen, *seed))
	case "deep":
		single(gen.DeepDAG(*n, *depth, *seed))
	case "fig1":
		single(gen.Figure1())
	case "fig2":
		single(gen.Figure2())
	case "fig3":
		gg, ss := gen.Figure3()
		g, sources = gg, ss
	default:
		return fmt.Errorf("fpgen: unknown dataset %q", *dataset)
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
		coarsenR  = fs.Float64("coarsen-ratio", 0, "ml-celf: bounded-mode target node ratio in [0, 1] (0 = contract to fixpoint)")
		coarsenL  = fs.Bool("coarsen-lossless", false, "ml-celf: restrict coarsening to the bit-exactness-preserving rules")
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
		if opts, err = placeOptions(*algo, *procs, *seed, *quality, *coarsenR, *coarsenL); err != nil {
			return fmt.Errorf("fpplace: %w", err)
		}
	}
	if len(inputs) > 1 {
		if *acyclicF || *weighted || *impacts || *dotOut != "" || *algo == "tree" {
			return fmt.Errorf("fpplace: batched placement over %d files supports plain placement only (no -acyclic, -weighted, -impacts, -dot or tree)", len(inputs))
		}
		if slices.Contains(inputs, "-") {
			return fmt.Errorf("fpplace: stdin ('-') cannot be combined with batched placement; pass files only")
		}
		return runFpplaceBatch(inputs, *k, opts, *engine, *source, *quiet, stdout, stderr)
	}
	*in = inputs[0]

	var g *graph.Digraph
	var weightFn func(u, v int) float64
	var err error
	read := func(r io.Reader) {
		if *weighted {
			g, weightFn, err = graph.ReadWeightedEdgeList(r)
		} else {
			g, err = graph.ReadEdgeList(r)
		}
	}
	if *in == "-" {
		read(stdin)
	} else {
		var f *os.File
		f, err = os.Open(*in)
		if err == nil {
			read(f)
			f.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("fpplace: %w", err)
	}
	if *weighted && (*acyclicF || *engine == "big") {
		return fmt.Errorf("fpplace: -weighted requires the float engine and an acyclic input")
	}
	sources := []int{}
	if *source >= 0 {
		sources = []int{*source}
	}

	if *acyclicF {
		var st acyclic.BuildStats
		if *source >= 0 {
			g, st, err = acyclic.Build(g, *source)
		} else {
			var root int
			g, root, st, err = acyclic.BestRoot(g)
			sources = []int{root}
			if err == nil {
				fmt.Fprintf(stderr, "fpplace: best acyclic root = %s\n", g.Label(root))
			}
		}
		if err != nil {
			return fmt.Errorf("fpplace: %w", err)
		}
		fmt.Fprintf(stderr, "fpplace: acyclic: visited %d nodes, %d tree + %d extra edges, %d rejected\n",
			st.Visited, st.TreeEdges, st.ExtraEdges, st.Rejected)
	}

	if *showStats {
		ins, outs := g.InDegreeStats(), g.OutDegreeStats()
		fmt.Fprintf(stderr, "fpplace: %d nodes, %d edges; indeg mean %.2f max %d; outdeg mean %.2f max %d; %d sinks\n",
			g.N(), g.M(), ins.Mean, ins.Max, outs.Mean, outs.Max, len(g.Sinks()))
	}

	m, err := flow.NewModel(g, sources)
	if err != nil {
		return fmt.Errorf("fpplace: %w", err)
	}
	if weightFn != nil {
		m = m.WithWeights(weightFn)
	}
	var ev flow.Evaluator
	switch *engine {
	case "float":
		ev = flow.NewFloat(m)
	case "big":
		ev = flow.NewBig(m)
	default:
		return fmt.Errorf("fpplace: unknown engine %q", *engine)
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
		if len(m.Sources()) != 1 {
			return fmt.Errorf("fpplace: tree DP needs exactly one source, have %d", len(m.Sources()))
		}
		filters, _, err = core.TreeDP(g, m.Sources()[0], *k)
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
	fmt.Fprintf(stdout, "Φ(∅,V):     %.6g\n", ev.Phi(nil))
	fmt.Fprintf(stdout, "Φ(A,V):     %.6g\n", ev.Phi(mask))
	fmt.Fprintf(stdout, "F(A):       %.6g\n", ev.F(mask))
	fmt.Fprintf(stdout, "FR(A):      %.4f\n", flow.FR(ev, mask))
	if phiCI != nil {
		fmt.Fprintf(stdout, "Φ̂(A) CI95:  %.6g ± %.3g (%d sampled passes)\n", phiCI.Mean, phiCI.CI95(), phiCI.Runs)
	}
	if coarsenStats != nil {
		mode := "bounded"
		if coarsenStats.LosslessOnly {
			mode = "lossless"
		}
		fmt.Fprintf(stdout, "coarsen:    %d → %d nodes, %d → %d edges (%d rounds, %s)\n",
			coarsenStats.NodesBefore, coarsenStats.NodesAfter,
			coarsenStats.EdgesBefore, coarsenStats.EdgesAfter,
			coarsenStats.Rounds, mode)
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
func placeOptions(algo string, procs int, seed int64, quality, coarsenRatio float64, lossless bool) (core.Options, error) {
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
		Coarsen:     flow.CoarsenOptions{TargetRatio: coarsenRatio, Lossless: lossless},
	}
	return opts, opts.Validate()
}

// runFpplaceBatch places the same options on every input file as one gang
// through core.PlaceBatch. Results per graph are bit-identical to a solo
// fpplace run on that file; only scheduling is shared.
func runFpplaceBatch(inputs []string, k int, opts core.Options, engine string, source int, quiet bool, stdout, stderr io.Writer) error {
	graphs := make([]*graph.Digraph, len(inputs))
	evs := make([]flow.Evaluator, len(inputs))
	for i, path := range inputs {
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("fpplace: %w", err)
		}
		g, err := graph.ReadEdgeList(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("fpplace: %s: %w", path, err)
		}
		sources := []int{}
		if source >= 0 {
			sources = []int{source}
		}
		m, err := flow.NewModel(g, sources)
		if err != nil {
			return fmt.Errorf("fpplace: %s: %w", path, err)
		}
		graphs[i] = g
		switch engine {
		case "float":
			evs[i] = flow.NewFloat(m)
		case "big":
			evs[i] = flow.NewBig(m)
		default:
			return fmt.Errorf("fpplace: unknown engine %q", engine)
		}
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
		fmt.Fprintf(stdout, "F(A):       %.6g\n", ev.F(mask))
		fmt.Fprintf(stdout, "FR(A):      %.4f\n", flow.FR(ev, mask))
	}
	fmt.Fprintf(stderr, "fpplace: batch-placed %d graphs (algo %s, k=%d)\n", len(inputs), opts.Strategy, k)
	return nil
}
