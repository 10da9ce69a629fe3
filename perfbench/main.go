// Command perfbench is fpd's end-to-end benchmark. It starts an in-process
// server.New fpd behind a loopback httptest listener, uploads graphs it
// generates from --seed as edge lists, drives one closed-loop workload,
// checks every response, and prints its metrics, one per line with unit
// and sample count, then all of them as one JSON object on the last line
// of standard output.
//
//	bash perfbench/run.sh --workload place-miss --seed 1 --seconds 20 --trace 0
//
// Workloads: place-miss, serve-mix and churn (see workloads.go).
// --trace 1 is the separate traced run: the same workload with spans
// recorded around every call into fpd's layers, followed by direct probes
// of each layer; it prints the per-layer metrics and a latency
// decomposition of every op kind instead of the end-to-end metrics.
// --quick runs on tiny graphs, for testing the harness itself.
//
// The exit code is 0 when every response checked out, 1 when a check
// failed (the result line then says "correct": false), and 2 when the run
// could not complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/benchmeta"
	"repro/internal/obs"
	"repro/internal/server"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupsPerSegment is how many extra set-ups follow each window segment;
// setup_s is the median over them and the first.
const setupsPerSegment = 2

// windowSegments is how many parts the measured window is cut into.
const windowSegments = 4

// runLimit stops a run that would outlive its time budget.
const runLimit = 170 * time.Second

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: place-miss, serve-mix or churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny graphs, for testing the harness")
	flag.Parse()
	cfg.trace = trace == 1
	if workloadNamed(cfg.workload) == nil || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload place-miss|serve-mix|churn, --trace 0|1 and --seconds > 0")
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(2)
	})

	res, err := run(cfg, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and returns its result. Human-readable
// progress and metrics go to out, failures to errOut.
func run(cfg config, out, errOut io.Writer) (result, error) {
	w := workloadNamed(cfg.workload)
	gs := w.graphs(cfg.seed, cfg.quick)
	cover := gs[len(gs)-1]
	// The benchmark's own inputs (digraphs, edge-list text, churn streams)
	// stay live all run; mem.live_heap_mb leaves them out.
	baseHeap := liveHeap()
	b := &bench{cfg: cfg, par: w.par, opGraphs: map[int]*graphRef{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	defer b.stop()

	// Set-up: server.New, uploads, one evaluate per graph (forcing plan
	// and evaluator builds) and the workload's fill. Untraced. The first
	// brings up the fpd the window runs on. The host's speed drifts over
	// seconds, so the others run between the window's segments, each on an
	// fpd of its own that is stopped again, and setup_s is the median of all.
	var setups []float64
	setupTally := newTally()
	timedSetup := func(sb *bench, sgs []*graphRef, tr *tracer) error {
		runtime.GC() // earlier garbage is collected before the clock starts
		t0 := time.Now()
		if err := sb.setup(w, sgs, setupTally, tr); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	// extraSetups runs set-ups on fresh copies of the graphs, as generated.
	extraSetups := func() error {
		for i := 0; i < setupsPerSegment; i++ {
			sgs := make([]*graphRef, len(gs))
			for j, g := range gs {
				c := *g
				c.version = 0
				sgs[j] = &c
			}
			sb := &bench{cfg: cfg, par: w.par}
			err := timedSetup(sb, sgs, nil)
			sb.stop()
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := timedSetup(b, gs, tr); err != nil {
		return result{}, err
	}
	if cfg.trace {
		for _, g := range gs {
			probeGraph(g, w.par, cfg.quick)
		}
	}
	if w.warm != nil {
		if err := w.warm(b, gs, setupTally); err != nil {
			return result{}, fmt.Errorf("warm-up: %w", err)
		}
	}
	b.tr = tr

	// The measured window: closed-loop clients, in segments each followed
	// by a slice of the coverage tail, so that the coverage ops sample the
	// host over the whole run as the window's ops do. The window's
	// counters and times sum the segments only.
	var (
		winSeconds     float64
		winCounters    counters
		schedTasks     int64
		schedWaitS     float64
		gcStart, gcEnd runtime.MemStats
		heap           uint64
		gcPauseNS      uint64
		gcCycles       uint32
		firstReading   counters
		segment        = time.Duration(cfg.seconds / windowSegments * float64(time.Second))
		clients        = make([]*tally, w.clients)
	)
	for c := range clients {
		clients[c] = newTally()
	}
	cov := newTally()
	for seg := 0; seg < windowSegments; seg++ {
		c0, u0, err := b.readings()
		if err != nil {
			return result{}, err
		}
		if seg == 0 {
			firstReading = c0
		}
		paused := make([]time.Duration, len(clients))
		for c, tl := range clients {
			paused[c] = tl.paused
		}
		runtime.ReadMemStats(&gcStart)
		segStart := time.Now()
		var wg sync.WaitGroup
		for c, tl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.mix(b, gs, c, tl, segStart.Add(segment))
			}()
		}
		wg.Wait()
		runtime.ReadMemStats(&gcEnd)
		// The segment lasts until its last op ended, less the longest time
		// one client spent paused in it.
		last, pause := segStart, time.Duration(0)
		for c, tl := range clients {
			if tl.last.After(last) {
				last = tl.last
			}
			pause = max(pause, tl.paused-paused[c])
		}
		winSeconds += (last.Sub(segStart) - pause).Seconds()
		gcPauseNS += gcEnd.PauseTotalNs - gcStart.PauseTotalNs
		gcCycles += gcEnd.NumGC - gcStart.NumGC
		if seg == windowSegments-1 {
			heap = liveHeap()
		}
		c1, u1, err := b.readings()
		if err != nil {
			return result{}, err
		}
		winCounters = winCounters.add(c1.sub(c0))
		schedTasks += u1.SchedTasks - u0.SchedTasks
		schedWaitS += u1.SchedQueueWaitSeconds - u0.SchedQueueWaitSeconds
		b.cover(cov, cover, w.kinds, time.Duration(coverShare*float64(segment)))
		if err := extraSetups(); err != nil {
			return result{}, err
		}
	}
	win := newTally()
	for _, tl := range clients {
		win.merge(tl)
	}
	mixErr := assertMix(winCounters, win)
	finalReading, _, err := b.readings()
	if err != nil {
		return result{}, err
	}

	// Every check.
	all := newTally()
	for _, t := range []*tally{setupTally, win, cov} {
		all.merge(t)
	}
	checkStart := time.Now()
	chk := checkRecords(all.records, cfg.seed)
	checkSeconds := time.Since(checkStart).Seconds()

	res := result{
		Correct:   all.failed == 0 && chk.bad == 0 && mixErr == nil,
		Attempted: all.attempted,
		Failed:    all.failed + chk.bad,
	}
	for _, msg := range append(all.errs, chk.msgs...) {
		fmt.Fprintln(errOut, "perfbench: failed:", msg)
	}
	if mixErr != nil {
		fmt.Fprintln(errOut, "perfbench: mix assertion failed:", mixErr)
	}

	host, _ := json.Marshal(benchmeta.Current())
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g trace=%v quick=%v clients=%d parallelism=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.quick, w.clients, w.par)
	fmt.Fprintf(out, "host: %s\n", host)
	fmt.Fprintf(out, "window: %d ops in %.3f s; %d attempted, %d failed (failed_frac %.4g) including set-up and coverage ops\n",
		len(win.all), winSeconds, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	fmt.Fprintf(out, "checked %d responses in %.1f s\n", len(all.records), checkSeconds)
	fmt.Fprintf(out, "fpd over the window: %d cache hits, %d misses; %d plans spliced, %d rebuilt; %d flights joined\n",
		winCounters.hits, winCounters.misses, winCounters.splices, winCounters.rebuilds, winCounters.flights)

	counts := map[string]int{}
	res.Metrics = map[string]metric{}
	put := func(name, unit string, v float64, n int) {
		res.Metrics[name] = metric{v, unit}
		counts[name] = n
	}
	if cfg.trace {
		b.addSyncEstimates(tr.view())
		v := tr.view()
		rd := runReadings{
			counters:   finalReading.sub(firstReading),
			schedTasks: schedTasks,
			schedWaitS: schedWaitS,
			gcPauseNS:  gcPauseNS,
			gcCycles:   gcCycles,
		}
		if err := b.layerMetrics(w, gs[0], rd, v, out, put); err != nil {
			return result{}, err
		}
		for _, k := range opKinds {
			v.decompose(out, k)
		}
	} else {
		put("setup_s", "s", median(setups), len(setups))
		put("throughput_ops_s", "1/s", float64(len(win.all))/winSeconds, len(win.all))
		put("latency.p50_ms", "ms", centralMedian(win.all), len(win.all))
		put("latency.p99_ms", "ms", quantile(win.all, 0.99), len(win.all))
		put("mem.live_heap_mb", "MB", (float64(heap)-float64(baseHeap))/(1<<20), 1)
		ops := newTally()
		ops.merge(win)
		ops.merge(cov)
		for _, k := range opKinds {
			p50, n := ops.p50(k)
			put(k+".p50_ms", "ms", p50, n)
		}
		put("quality.min_f_ratio", "ratio", chk.minRatio, 1)
	}
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, fmt.Errorf("metric %s has no value: its op never succeeded", name)
		}
		fmt.Fprintf(out, "  %-36s %14.6g %-5s (n=%d)\n", name, m.Value, m.Unit, counts[name])
	}
	return res, nil
}

func sortedKeys(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// liveHeap is the heap in use after a forced collection.
func liveHeap() uint64 {
	// Twice: pooled scratch survives one collection in sync.Pool's victim
	// cache.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setup starts fpd, uploads the graphs the mix uses, evaluates each once
// and runs the workload's fill. The coverage graph is uploaded only where
// it is the mix's own graph: coverage rounds upload copies of their own.
func (b *bench) setup(w *workload, gs []*graphRef, tl *tally, tr *tracer) error {
	b.start(tr)
	if len(gs) > 1 {
		gs = gs[:len(gs)-1]
	}
	for _, g := range gs {
		if err := b.upload(g); err != nil {
			return err
		}
	}
	for _, g := range gs {
		if err := b.evaluate(tl, "setup.evaluate", g, nil); err != nil {
			return err
		}
	}
	if w.fill != nil {
		return w.fill(b, gs, tl)
	}
	return nil
}

// readings scrapes fpd's /metrics and the default tenant's usage.
func (b *bench) readings() (counters, obs.TenantUsage, error) {
	var snap server.MetricsSnapshot
	if _, err := b.do("GET", "/metrics", "", 0, nil, &snap); err != nil {
		return counters{}, obs.TenantUsage{}, err
	}
	var u obs.TenantUsage
	if _, err := b.do("GET", "/v1/tenants/"+obs.DefaultTenant+"/usage", "", 0, nil, &u); err != nil {
		return counters{}, obs.TenantUsage{}, err
	}
	return countersOf(snap), u, nil
}
