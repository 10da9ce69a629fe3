package main

import (
	"math/rand"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
)

// Op kinds. Each end-to-end per-op metric is the median latency of one.
var opKinds = []string{
	"place.cached", "place.gmax", "place.gall", "place.celf", "place.approx",
	"place.mlcelf", "evaluate", "patch", "maintain",
}

// workload is one traffic mix. Every run reports every metric, so the ops
// a mix lacks run in coverage slices between the window's segments, on
// copies of the coverage graph (TwitterLike(0.1)); they count as attempted
// and are checked, but stay out of the window's throughput, latency
// percentiles and /metrics assertions.
type workload struct {
	name string
	// clients and par, the closed-loop client count and the parallelism
	// of every placement request, size the load for a 2-CPU host.
	clients, par int
	// graphs generates the workload's graphs; the last is the coverage
	// graph, and the first is the primary graph the traced run probes.
	graphs func(seed int64, quick bool) []*graphRef
	// fill runs after the uploads, inside the timed set-up.
	fill func(b *bench, gs []*graphRef, tl *tally) error
	// warm runs after set-up, outside both set-up and the window.
	warm func(b *bench, gs []*graphRef, tl *tally) error
	// mix drives one closed-loop client until the deadline; it is called
	// once per window segment with the same tally.
	mix func(b *bench, gs []*graphRef, client int, tl *tally, deadline time.Time)
	// kinds lists the op kinds the mix sends; coverage runs the rest.
	kinds []string
	// k is the budget the traced run's direct core.Place probes use.
	k int
}

var workloads = []*workload{placeMiss, serveMix, churn}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Seeds of the generated inputs, derived from the one --seed argument.
func seedOf(seed int64, purpose int64) int64 { return seed*1000 + purpose }

// structureSeed fixes every graph's shape and churn stream, so every run
// measures the same structures and the same edge changes: the work per
// request does not depend on --seed. The seed relabels the nodes by a
// random permutation instead, so the edge list fpd receives, the churn
// batches it is sent and the request stream all differ per seed.
const structureSeed = 1

// relabeled returns g with node v renamed perm[v] for a permutation drawn
// from seed, plus its edge list and stream, a churn stream of g, renamed
// alike.
func relabeled(name string, g *graph.Digraph, src int, stream []gen.Mutation, seed int64) *graphRef {
	perm := rand.New(rand.NewSource(seed)).Perm(g.N())
	b := graph.NewBuilder(g.N())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(u) {
			b.AddEdge(perm[u], perm[v])
		}
	}
	rg := b.MustBuild() // a relabeled DAG stays a DAG
	var sb strings.Builder
	if err := graph.WriteEdgeList(&sb, rg); err != nil {
		panic(err) // a strings.Builder never fails
	}
	rename := func(edges [][2]int) [][2]int {
		out := make([][2]int, len(edges))
		for i, e := range edges {
			out[i] = [2]int{perm[e[0]], perm[e[1]]}
		}
		return out
	}
	rs := make([]gen.Mutation, len(stream))
	for i, m := range stream {
		rs[i] = gen.Mutation{Add: rename(m.Add), Remove: rename(m.Remove)}
	}
	return &graphRef{name: name, g: rg, src: perm[src], text: sb.String(), stream: rs}
}

// twitter is TwitterLike(scale) relabeled by seed, with a stream of the
// given number of 1% churn batches: excursions of a TwitterChurn stream.
func twitter(name string, scale float64, batches int, seed int64) *graphRef {
	g, src := gen.TwitterLike(scale, structureSeed)
	var stream []gen.Mutation
	if batches > 0 {
		stream = gen.TwitterChurn(g, min(batches, churnSpan), 0.01, structureSeed)
	}
	r := relabeled(name, g, src, stream, seed)
	r.stream = excursions(r.stream, batches)
	return r
}

// churnSpan is how many batches of churn an excursion applies before it
// turns back.
const churnSpan = 32

// excursions returns n batches that apply stream in order and then undo it
// in reverse, over and over. The graph never strays more than len(stream)
// batches from the one generated, so every stretch of a run PATCHes graphs
// of the same shape: the work per cycle does not drift with the number of
// cycles a run gets through. (Left to run on, 1% churn reshapes
// TwitterLike within a few hundred batches, and a PATCH's plan rebuild
// grows 50% dearer.)
func excursions(stream []gen.Mutation, n int) []gen.Mutation {
	out := make([]gen.Mutation, 0, n)
	for len(out) < n {
		for i := 0; i < len(stream) && len(out) < n; i++ {
			out = append(out, stream[i])
		}
		for i := len(stream) - 1; i >= 0 && len(out) < n; i-- {
			out = append(out, gen.Mutation{Add: stream[i].Remove, Remove: stream[i].Add})
		}
	}
	return out
}

// coverageGraph is TwitterLike(0.1) (9,194 nodes), with the churn batch
// the coverage ops PATCH in.
func coverageGraph(seed int64, quick bool) *graphRef {
	scale := 0.1
	if quick {
		scale = 0.02
	}
	return twitter("twitter-9k", scale, 1, seedOf(seed, 9))
}

const (
	// coverShare is a coverage slice's length as a share of the window
	// segment before it.
	coverShare = 0.3
	// coverCheapReps repeats the millisecond ops within a round, and
	// coverCachedReps the cached placement, which takes a tenth of that.
	coverCheapReps  = 4
	coverCachedReps = 32
	coverK          = 12
)

// place-miss: uncached greedy placements on the two large graphs.
var placeMiss = &workload{
	name:    "place-miss",
	clients: 1,
	par:     2,
	k:       placeMissK,
	kinds:   []string{"place.gall", "place.celf", "place.approx", "place.mlcelf"},
	graphs: func(seed int64, quick bool) []*graphRef {
		scale, chainN := 0.25, 50_000
		if quick {
			scale, chainN = 0.02, 2_000
		}
		cg, csrc := gen.ChainDAG(chainN, 8, structureSeed)
		return []*graphRef{
			twitter("twitter-23k", scale, 0, seedOf(seed, 1)),
			relabeled("chain-50k", cg, csrc, nil, seedOf(seed, 2)),
			coverageGraph(seed, quick),
		}
	},
	// Each pass sends gall, celf, approx and mlcelf (fpd defaults) to both
	// graphs at the one budget placeMissK, so every pass does the same work
	// however many passes a run holds. Before every pass but the first, both
	// graphs are uploaded afresh (and the old copies deleted), so no (graph,
	// algorithm, k) repeats and every request misses the cache; that pause is
	// kept out of the window and added to its deadline. Only whole passes run.
	mix: func(b *bench, gs []*graphRef, _ int, tl *tally, deadline time.Time) {
		for first := true; first || time.Now().Before(deadline); first = false {
			if tl.seq > 0 {
				start := time.Now()
				for _, g := range gs[:2] {
					b.rekey(tl, g)
				}
				pause := time.Since(start)
				tl.paused += pause
				deadline = deadline.Add(pause)
			}
			tl.seq++
			for _, g := range gs[:2] {
				for _, algo := range []string{"gall", "celf", "approx", "mlcelf"} {
					spec := server.PlaceSpec{Algorithm: algo, K: placeMissK, Parallelism: b.par}
					if algo == "approx" {
						spec.Seed = b.cfg.seed
					}
					tl.cacheMissesSent++
					b.place(tl, "place."+algo, g, spec)
				}
			}
		}
	},
}

const placeMissK = 20

// rekey replaces fpd's copy of g by a fresh upload of the same edge list,
// deletes the old copy and builds the new one's plan with one evaluate.
// Its ops count as attempted and are checked, but are not timed.
func (b *bench) rekey(tl *tally, g *graphRef) {
	side := newTally()
	old := g.id
	err := b.upload(g)
	if err == nil {
		_, err = b.do("DELETE", "/v1/graphs/"+old, "", 0, nil, nil)
	}
	side.done("rekey", g, time.Now(), err)
	if err == nil {
		b.evaluate(side, "rekey.evaluate", g, nil)
	}
	side.lat, side.all = nil, nil
	tl.merge(side)
}

// serveWarmK are the budgets whose celf placements serve-mix caches in
// set-up; its cached and evaluate requests draw k from them.
var serveWarmK = []int{4, 5, 6, 7, 8, 9, 10, 11}

// serveK is the budget of serve-mix's uncached approx requests and of the
// traced run's direct probes.
const serveK = 8

// serve-mix: two clients of cheap, mostly cached requests on one graph.
var serveMix = &workload{
	name:    "serve-mix",
	clients: 2,
	// Serial requests: an uncached approx occupies one CPU, not both.
	par:   1,
	k:     serveK,
	kinds: []string{"place.cached", "place.gmax", "evaluate", "place.approx"},
	graphs: func(seed int64, quick bool) []*graphRef {
		return []*graphRef{coverageGraph(seed, quick)}
	},
	fill: func(b *bench, gs []*graphRef, tl *tally) error {
		filters := map[int][]int{}
		for _, k := range serveWarmK {
			res, err := b.place(tl, "warm", gs[0], server.PlaceSpec{Algorithm: "celf", K: k, Parallelism: b.par})
			if err != nil {
				return err
			}
			filters[k] = res.Filters
		}
		b.warm = filters
		return nil
	},
	// About 60% cached celf, 20% sync gmax, 10% evaluate of a cached
	// placement and 10% approx with a unique seed (so a cache miss).
	mix: func(b *bench, gs []*graphRef, client int, tl *tally, deadline time.Time) {
		g := gs[0]
		if tl.rng == nil {
			tl.rng = rand.New(rand.NewSource(seedOf(b.cfg.seed, int64(100+client))))
		}
		rng := tl.rng
		for time.Now().Before(deadline) {
			k := serveWarmK[rng.Intn(len(serveWarmK))]
			switch x := rng.Float64(); {
			case x < 0.6:
				tl.cacheHitsSent++
				res, err := b.place(tl, "place.cached", g, server.PlaceSpec{Algorithm: "celf", K: k, Parallelism: b.par})
				if err == nil && !res.Cached {
					tl.failed++
					tl.errs = append(tl.errs, "place.cached: response not served from the cache")
				}
			case x < 0.8:
				b.place(tl, "place.gmax", g, server.PlaceSpec{Algorithm: "gmax", K: 1 + rng.Intn(20), Parallelism: b.par})
			case x < 0.9:
				b.evaluate(tl, "evaluate", g, b.warm[k])
			default:
				// One budget: its cost then has one mode, which the median
				// sits in the middle of.
				tl.seq++
				tl.cacheMissesSent++
				seed := seedOf(b.cfg.seed, int64(client))*1_000_000 + int64(tl.seq)
				b.place(tl, "place.approx", g, server.PlaceSpec{Algorithm: "approx", K: serveK, Seed: seed, Parallelism: b.par})
			}
		}
	},
}

// churn: PATCH batches with auto-maintain beside reads on one graph.
var churn = &workload{
	name:    "churn",
	clients: 1,
	par:     2,
	k:       churnK,
	kinds:   []string{"patch", "maintain", "evaluate", "place.gmax"},
	graphs: func(seed int64, quick bool) []*graphRef {
		scale := 0.5
		if quick {
			scale = 0.02
		}
		return []*graphRef{twitter("twitter-45k", scale, churnBatches, seedOf(seed, 3)), coverageGraph(seed, quick)}
	},
	// The first cycle upgrades the graph to a dynamic overlay and computes
	// the initial placement: a one-time cost kept out of the window.
	warm: func(b *bench, gs []*graphRef, tl *tally) error {
		return churnCycle(b, gs[0], tl)
	},
	mix: func(b *bench, gs []*graphRef, _ int, tl *tally, deadline time.Time) {
		g := gs[0]
		for time.Now().Before(deadline) && g.version < len(g.stream) {
			if churnCycle(b, g, tl) != nil {
				return // the graph's version is now unknown; the failure is counted
			}
			tl.cycles++
		}
	},
}

const (
	churnK = 10
	// churnBatches bounds the churn stream; the window ends early if a
	// run ever uses it all.
	churnBatches = 2500
)

// churnCycle PATCHes the next 1% batch with maintain:true, waits for the
// maintain job, evaluates the maintained filters and sends one sync gmax.
func churnCycle(b *bench, g *graphRef, tl *tally) error {
	filters, err := b.patchMaintain(tl, g, churnK, "patch", "maintain")
	if err != nil {
		return err
	}
	if err := b.evaluate(tl, "evaluate", g, filters); err != nil {
		return err
	}
	_, err = b.place(tl, "place.gmax", g, server.PlaceSpec{Algorithm: "gmax", K: churnK, Parallelism: b.par})
	return err
}

// cover runs the op kinds the mix lacks, in rounds until d has passed.
// Each round uploads a fresh copy of the coverage graph, so every round
// repeats the same work: its placements miss the cache on the graph as
// generated, and its PATCH applies the stream's first batch to it.
func (b *bench) cover(tl *tally, g *graphRef, have []string, d time.Duration) {
	missing := map[string]bool{}
	for _, k := range opKinds {
		missing[k] = true
	}
	for _, k := range have {
		delete(missing, k)
	}
	deadline := time.Now().Add(d)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		c := *g
		if err := b.upload(&c); err != nil {
			tl.done("cover.upload", g, time.Now(), err)
			return
		}
		// Build the copy's plan before timing anything on it.
		b.evaluate(tl, "cover.warm", &c, nil)
		var filters []int
		for _, algo := range []string{"gall", "celf", "approx", "mlcelf"} {
			cached := algo == "celf" && missing["place.cached"]
			if !missing["place."+algo] && !cached {
				continue
			}
			kind := "place." + algo
			if !missing[kind] {
				kind = "cover.warm"
			}
			spec := server.PlaceSpec{Algorithm: algo, K: coverK, Parallelism: b.par}
			if algo == "approx" {
				spec.Seed = b.cfg.seed
			}
			if res, err := b.place(tl, kind, &c, spec); err == nil {
				filters = res.Filters
			}
			for i := 0; cached && i < coverCachedReps; i++ {
				b.place(tl, "place.cached", &c, spec)
			}
		}
		for i := 0; i < coverCheapReps; i++ {
			if missing["place.gmax"] {
				if res, err := b.place(tl, "place.gmax", &c, server.PlaceSpec{Algorithm: "gmax", K: coverK, Parallelism: b.par}); err == nil && filters == nil {
					filters = res.Filters
				}
			}
			if missing["evaluate"] {
				b.evaluate(tl, "evaluate", &c, filters)
			}
		}
		if missing["patch"] {
			b.patchMaintain(tl, &c, churnK, "patch", "maintain")
		}
		if _, err := b.do("DELETE", "/v1/graphs/"+c.id, "", 0, nil, nil); err != nil {
			tl.done("cover.delete", g, time.Now(), err)
			return
		}
	}
}
