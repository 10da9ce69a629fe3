package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dyn"
	"repro/internal/flow"
	"repro/internal/gen"
)

// The traced run's per-layer probes call each layer's public functions
// directly on the workload's primary graph, timed by the benchmark's own
// code around every call.

// algos maps fpd's algorithm names to the core strategies they run.
var algos = []struct {
	name     string
	strategy core.Strategy
}{
	{"gall", core.StrategyGreedyAll},
	{"celf", core.StrategyCELF},
	{"approx", core.StrategyApproxCELF},
	{"mlcelf", core.StrategyMLCELF},
	{"gmax", core.StrategyGreedyMax},
}

// routes are the fpd routes every workload's run exercises.
var routes = []string{"place", "job", "evaluate", "patch"}

// timeEach runs f at least reps times and for at least minTime, and
// returns the median duration of one call in milliseconds and the number
// of calls.
func timeEach(reps int, minTime time.Duration, f func()) (float64, int) {
	var ms []float64
	begin := time.Now()
	for len(ms) < reps || time.Since(begin) < minTime {
		t := time.Now()
		f()
		ms = append(ms, float64(time.Since(t))/float64(time.Millisecond))
	}
	return median(ms), len(ms)
}

// kernelProbe is one graph's forward and suffix pass cost next to the
// in-cache copy ceiling for the same number of bytes; each is the median
// of at least 20 calls, n of them for the forward pass.
type kernelProbe struct {
	fwdMS, sufMS, copyMS float64
	n                    int
	// bytes is the forward pass's computed memory traffic: per edge a
	// 4-byte in-CSR index and an 8-byte emit read; per node the CSR
	// offset (4), rec and emit writes (16), source and filter masks (2),
	// the filter-mask translation (2) and the Φ sum's rec read (8).
	bytes int
}

func perEdge(ms float64, m int) float64 { return ms * 1e6 / float64(m) }

// probeKernels times Phi and Suffix with a one-filter mask — Φ(∅) is
// cached by the engine, so an empty mask would time nothing — and a copy()
// moving the same bytes, all in this run.
func probeKernels(g *graphRef, quick bool) kernelProbe {
	m, err := flow.NewModel(g.g, []int{g.src})
	if err != nil {
		panic(err) // the graph was generated as a DAG with this source
	}
	ev := flow.NewFloat(m)
	n, edges := g.g.N(), g.g.M()
	mask := make([]bool, n)
	mask[busiest(g)] = true
	minTime := 200 * time.Millisecond
	if quick {
		minTime = 10 * time.Millisecond
	}
	kp := kernelProbe{bytes: 12*edges + 32*n}
	kp.fwdMS, kp.n = timeEach(20, minTime, func() { ev.Phi(mask) })
	kp.sufMS, _ = timeEach(20, minTime, func() { ev.Suffix(mask) })
	src, dst := make([]byte, kp.bytes/2), make([]byte, kp.bytes/2)
	kp.copyMS, _ = timeEach(20, minTime, func() { copy(dst, src) })
	return kp
}

// busiest returns the non-source node with the largest in·out degree: a
// filter there changes the pass's arithmetic.
func busiest(g *graphRef) int {
	best, score := -1, -1
	for v := 0; v < g.g.N(); v++ {
		if s := g.g.InDegree(v) * len(g.g.Out(v)); v != g.src && s > score {
			best, score = v, s
		}
	}
	return best
}

// probeGraph fills g's pass and direct-gmax timings, the basis of the
// traced run's kernel and strategy estimates.
func probeGraph(g *graphRef, par int, quick bool) {
	kp := probeKernels(g, quick)
	g.fwdMS, g.sufMS = kp.fwdMS, kp.sufMS
	m, _ := flow.NewModel(g.g, []int{g.src})
	ev := flow.NewFloat(m)
	g.gmaxMS, _ = timeEach(5, 0, func() {
		core.Place(context.Background(), ev, churnK, core.Options{Strategy: core.StrategyGreedyMax, Parallelism: par})
	})
}

// runReadings are fpd's own counters and the Go runtime's over the run:
// the counters span the window and the coverage tail, the scheduler waits
// and the collector figures the window only.
type runReadings struct {
	counters   counters
	schedTasks int64
	schedWaitS float64
	gcPauseNS  uint64
	gcCycles   uint32
}

// layerMetrics runs the direct layer probes on the primary graph, derives
// the server, HTTP, runtime and trace metrics from the run, and hands each
// to put with its unit and sample count.
func (b *bench) layerMetrics(w *workload, prim *graphRef, rd runReadings, v *traceView, out io.Writer,
	put func(name, unit string, v float64, n int)) error {
	quick := b.cfg.quick
	const reps = 3

	// flow: kernels, plan and evaluator build, coarsening, splicing.
	kp := probeKernels(prim, quick)
	edges := prim.g.M()
	put("flow.forward.ns_per_edge", "ns", perEdge(kp.fwdMS, edges), kp.n)
	put("flow.suffix.ns_per_edge", "ns", perEdge(kp.sufMS, edges), kp.n)
	put("flow.forward.bytes_per_edge", "B", float64(kp.bytes)/float64(edges), 1)
	put("flow.copy_ceiling.ns_per_edge", "ns", perEdge(kp.copyMS, edges), kp.n)
	fmt.Fprintf(out, "kernel probe on %s (%d nodes, %d edges), one filter: forward %.4f ms, suffix %.4f ms per pass\n",
		prim.name, prim.g.N(), edges, kp.fwdMS, kp.sufMS)
	fmt.Fprintf(out, "copy ceiling: copy() between two %d-byte arrays, moving the forward pass's %d computed bytes: %.4f ms (an in-cache ceiling: the working set fits this host's last-level cache)\n",
		kp.bytes/2, kp.bytes, kp.copyMS)

	var model *flow.Model
	planMS, n := timeEach(reps, 0, func() {
		m, err := flow.NewModel(prim.g, []int{prim.src})
		if err != nil {
			panic(err) // the graph was generated as a DAG with this source
		}
		m.Plan()
		model = m
	})
	put("flow.plan_build_ms", "ms", planMS, n)
	evMS, n := timeEach(reps, 0, func() { flow.NewFloat(model) })
	put("flow.evaluator_build_ms", "ms", evMS, n)

	var cst flow.CoarsenStats
	var coarsenErr error
	coarsenMS, n := timeEach(reps, 0, func() { _, _, cst, coarsenErr = flow.Coarsen(model, flow.CoarsenOptions{}) })
	if coarsenErr != nil {
		return fmt.Errorf("coarsen %s: %w", prim.name, coarsenErr)
	}
	put("flow.coarsen_ms", "ms", coarsenMS, n)
	put("flow.coarsen.nodes_after", "count", float64(cst.NodesAfter), 1)

	batches := 20
	if quick {
		batches = 4
	}
	stream := gen.TwitterChurn(prim.g, batches, 0.01, seedOf(b.cfg.seed, 20))
	spliceMS, spliced, reasons, err := probeSplice(prim, model, stream)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "splice probe: %d 1%%-churn batches on %s, %.0f%% spliced; rebuild reasons %v\n",
		batches, prim.name, 100*spliced, reasons)
	put("flow.splice_ms", "ms", spliceMS, batches)
	put("flow.spliced_frac", "ratio", spliced, batches)

	// dyn: overlay apply and incremental maintenance, as fpd's auto-maintain runs them.
	applyMS, maintainMS, recompute, err := probeMaintain(prim, stream, b.par)
	if err != nil {
		return err
	}
	put("dyn.apply_ms", "ms", applyMS, batches)
	put("dyn.maintain_ms", "ms", maintainMS, batches)
	put("dyn.recompute_frac", "ratio", recompute, batches)

	// core: each strategy through core.Place at the workload's k and
	// request parallelism.
	ev := flow.NewFloat(model)
	for _, a := range algos {
		var res core.Result
		var placeErr error
		reps := 1
		if a.name == "gall" || a.name == "gmax" {
			reps = 5
		}
		placeMS, n := timeEach(reps, 0, func() {
			res, placeErr = core.Place(context.Background(), ev, w.k, core.Options{
				Strategy: a.strategy, Parallelism: b.par, SampleSeed: b.cfg.seed})
		})
		if placeErr != nil {
			return fmt.Errorf("core.Place %s on %s: %w", a.name, prim.name, placeErr)
		}
		put("core.place_ms."+a.name, "ms", placeMS, n)
		put("core.exact_evals."+a.name, "count", float64(res.Stats.GainEvaluations), 1)
		put("core.passes.forward."+a.name, "count", float64(res.Passes.Forward), 1)
		if a.name == "approx" {
			put("core.sampled_evals.approx", "count", float64(res.Stats.SampledEvaluations), 1)
		} else {
			put("core.passes.suffix."+a.name, "count", float64(res.Passes.Suffix), 1)
		}
	}

	// sched, server: fpd's own counters and the job timelines.
	schedWait := 0.0
	if rd.schedTasks > 0 {
		schedWait = rd.schedWaitS * 1000 / float64(rd.schedTasks)
	}
	put("sched.queue_wait_ms", "ms", schedWait, int(rd.schedTasks))
	var queued, run []float64
	for _, s := range v.spans {
		switch s.name {
		case "server.job.queued":
			queued = append(queued, v.durMS(s.id))
		case "server.job.run":
			run = append(run, v.durMS(s.id))
		}
	}
	put("server.job.queue_wait_ms", "ms", median(queued), len(queued))
	put("server.job.run_ms", "ms", median(run), len(run))
	d := rd.counters
	hitRatio := 0.0
	if d.hits+d.misses > 0 {
		hitRatio = float64(d.hits) / float64(d.hits+d.misses)
	}
	put("server.cache.hit_ratio", "ratio", hitRatio, int(d.hits+d.misses))
	put("server.flights_joined", "count", float64(d.flights), 1)

	// server handlers and HTTP transport, per route.
	handler, transport, bytes := v.routeStats()
	for _, r := range routes {
		put("server.handler_ms."+r, "ms", median(handler[r]), len(handler[r]))
		put("http.transport_ms."+r, "ms", median(transport[r]), len(transport[r]))
		put("http.resp_bytes."+r, "B", median(bytes[r]), len(bytes[r]))
	}

	// runtime, over the window.
	put("runtime.gc_pause_ms", "ms", float64(rd.gcPauseNS)/1e6, int(rd.gcCycles))
	put("runtime.gc_cycles", "count", float64(rd.gcCycles), 1)

	for _, k := range opKinds {
		u := v.unattributed(k)
		put("trace.unattributed_ms."+k, "ms", median(u), len(u))
	}
	return nil
}

// probeSplice applies the stream to a fresh overlay and times the plan
// splicer's repair of each batch, as fpd's PATCH path runs it. It returns
// the median repair time and the share of batches repaired by splicing
// rather than a rebuild.
func probeSplice(g *graphRef, model *flow.Model, stream []gen.Mutation) (float64, float64, map[string]int, error) {
	d, err := dyn.FromDigraph(g.g, []int{g.src})
	if err != nil {
		return 0, 0, nil, err
	}
	sp := flow.NewSplicer(d, model.Plan(), flow.SpliceOptions{})
	var ms []float64
	spliced := 0
	reasons := map[string]int{}
	for _, m := range stream {
		res, err := d.Apply(dyn.Batch{Add: m.Add, Remove: m.Remove})
		if err != nil {
			return 0, 0, nil, err
		}
		t := time.Now()
		_, st := sp.Apply(res.DirtyFwd, res.DirtyBwd, res.NodesAdded)
		ms = append(ms, float64(time.Since(t))/float64(time.Millisecond))
		if st.Spliced {
			spliced++
		} else {
			reasons[st.Reason]++
		}
	}
	return median(ms), float64(spliced) / float64(len(stream)), reasons, nil
}

// probeMaintain runs a Maintainer over the stream: after the initial
// placement, each batch is applied and the placement maintained. It
// returns the median apply and maintain times and the share of maintain
// calls that fell back to a full recompute.
func probeMaintain(g *graphRef, stream []gen.Mutation, par int) (float64, float64, float64, error) {
	d, err := dyn.FromDigraph(g.g, []int{g.src})
	if err != nil {
		return 0, 0, 0, err
	}
	mt, err := dyn.NewMaintainer(d, dyn.Options{K: churnK, Parallelism: par}, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	ctx := context.Background()
	if _, err := mt.Maintain(ctx); err != nil {
		return 0, 0, 0, err
	}
	var apply, maintain []float64
	recompute := 0
	for _, m := range stream {
		t := time.Now()
		if _, err := mt.Apply(dyn.Batch{Add: m.Add, Remove: m.Remove}); err != nil {
			return 0, 0, 0, err
		}
		apply = append(apply, float64(time.Since(t))/float64(time.Millisecond))
		t = time.Now()
		rep, err := mt.Maintain(ctx)
		if err != nil {
			return 0, 0, 0, err
		}
		maintain = append(maintain, float64(time.Since(t))/float64(time.Millisecond))
		if rep.Strategy == dyn.StrategyRecompute {
			recompute++
		}
	}
	return median(apply), median(maintain), float64(recompute) / float64(len(stream)), nil
}

// addSyncEstimates hangs estimated children under the handler span of
// every traced sync gmax: the direct core.Place gmax time on the same
// graph, and inside it one forward and one suffix pass.
func (b *bench) addSyncEstimates(v *traceView) {
	for _, op := range v.ops("place.gmax") {
		g := b.opGraph(op)
		if g == nil {
			continue
		}
		for _, h := range v.children[op] {
			for _, c := range v.children[h] {
				hs := v.span(c)
				if hs.name != "server.handler" {
					continue
				}
				coreEnd := min(hs.end, hs.start+int64(g.gmaxMS*1e6))
				core := b.tr.addAt("core.place.est", c, hs.start, coreEnd)
				b.tr.addAt("flow.kernels.est", core, hs.start, min(coreEnd, hs.start+int64((g.fwdMS+g.sufMS)/float64(b.par)*1e6)))
			}
		}
	}
}
