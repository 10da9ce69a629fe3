// Package sched is the process-wide placement scheduler. Before it
// existed, every core.Place call owned its worker goroutines: the
// candidate-sharding evalPool spawned per call and the level-parallel
// passes spawned per level, so a tenant placing filters on hundreds of
// c-graphs paid goroutine startup per graph and oversubscribed the host
// with graphs × parallelism workers. sched inverts that ownership: one
// bounded pool per process executes the fine-grained work units — a chunk
// of a topological level, a shard of candidate gains, a whole
// sub-placement of a batch — from however many concurrent placements are
// in flight.
//
// The design is a helping scheduler with per-batch fairness:
//
//   - Tasks are submitted in a Batch. The submitter calls Wait, which
//     RUNS ITS OWN BATCH'S TASKS on the calling goroutine until none are
//     left. Progress therefore never depends on pool capacity: with zero
//     workers every batch degrades to serial inline execution, which is
//     also why nesting cannot deadlock (a pool worker running a
//     sub-placement task that submits its own inner batch just helps that
//     inner batch on the same goroutine).
//   - Idle pool workers steal queued tasks from any batch, picking
//     batches round-robin so one huge gang (a 500-graph fleet placement)
//     cannot starve a small interactive one: each runnable batch gives up
//     one task per scheduling turn.
//
// Determinism is untouched by construction. Split is the one place that
// cuts a span into chunks, and its boundaries depend only on the span and
// the caller's part count, never on the pool size; the pool only decides
// WHERE a chunk runs. Callers reduce per-chunk results left to right, so
// placements remain bit-for-bit identical at every pool size (including
// zero).
package sched

import (
	"runtime"
	"sync"
	"time"
)

// Pool is a bounded work-stealing scheduler. The zero value is not usable;
// create pools with NewPool or share the process-wide Default pool.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond // wakes workers: runnable task, resize, or close
	batches []*Batch   // batches with queued tasks, in round-robin rotation
	rr      int        // next batch to serve
	target  int        // desired worker count
	live    int        // running workers
	queued  int        // tasks submitted and not yet started
	closed  bool
	// sampler, when installed, observes each task's queue wait (submit →
	// start) along with the submitting batch's tag — the tenant-
	// attribution hook. Tasks are only wrapped while a sampler is set, so
	// the default nil costs nothing — no clock reads, no extra closure.
	sampler func(tag string, wait time.Duration)
}

// NewPool starts a pool with the given number of worker goroutines.
// workers may be zero: the pool then adds no concurrency and every batch
// runs inline on its submitter, which is the degenerate case tests use to
// prove helping alone makes progress.
func NewPool(workers int) *Pool {
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	p.Resize(workers)
	return p
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide pool, starting it with GOMAXPROCS
// workers on first use. Every placement path (level-parallel passes,
// candidate sharding, PlaceBatch gangs) schedules through it.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = NewPool(runtime.GOMAXPROCS(0)) })
	return defaultPool
}

// SetDefaultWorkers resizes the process-wide pool (the fpd -sched-workers
// flag). n ≤ 0 resets to GOMAXPROCS.
func SetDefaultWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	Default().Resize(n)
}

// Resize sets the worker count, starting or retiring workers as needed.
// Shrinking takes effect as workers finish their current task; negative
// values mean zero.
func (p *Pool) Resize(workers int) {
	if workers < 0 {
		workers = 0
	}
	p.mu.Lock()
	p.target = workers
	for p.live < p.target {
		p.live++
		go p.worker()
	}
	p.mu.Unlock()
	p.cond.Broadcast() // excess workers notice the shrink
}

// Workers returns the current target worker count.
func (p *Pool) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.target
}

// SetQueueWaitSampler installs fn to observe every task's queue wait —
// the time from Batch.Go to the task starting, whether it starts on a
// stealing pool worker or on the submitter helping inline. tag is the
// submitting batch's tag (see Batch.SetTag; empty for untagged internal
// batches), which fpd uses to attribute scheduler wait to tenants on
// top of the fpd_sched_queue_wait_seconds histogram; nil uninstalls. fn
// runs on the executing goroutine just before the task and must be fast
// and concurrency-safe.
func (p *Pool) SetQueueWaitSampler(fn func(tag string, wait time.Duration)) {
	p.mu.Lock()
	p.sampler = fn
	p.mu.Unlock()
}

// QueueDepth returns the number of submitted tasks no goroutine has
// started yet, across all batches — the backlog gauge fpd surfaces in
// /metrics.
func (p *Pool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued
}

// Close retires every worker. Batches still waiting are not abandoned:
// their submitters keep helping inline, so Close never strands work. A
// closed pool still accepts batches (they just run helper-only).
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.target = 0
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Split runs fn over [lo, hi) cut into at most parts contiguous chunks:
// chunk i is [lo+i·c, min(lo+(i+1)·c, hi)) with c = ⌈(hi−lo)/min(parts,
// hi−lo)⌉. The chunks run as one batch on the Default pool, tagged for
// the queue-wait sampler, and Split returns when all of them have. It is
// the only code in the module that computes a chunk boundary, and the
// boundaries depend only on (lo, hi, parts). parts ≤ 1 runs fn(0, lo, hi)
// inline with no scheduling at all; any larger parts schedules, even a
// one-item span. An empty span runs nothing.
func Split(tag string, lo, hi, parts int, fn func(i, lo, hi int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if parts <= 1 {
		fn(0, lo, hi)
		return
	}
	c := (n + min(parts, n) - 1) / min(parts, n)
	b := Default().NewBatch().SetTag(tag)
	b.tasks = make([]func(), 0, (n+c-1)/c)
	for i, clo := 0, lo; clo < hi; i, clo = i+1, clo+c {
		chi := min(clo+c, hi)
		b.Go(func() { fn(i, clo, chi) })
	}
	b.Wait()
}

// Batch is one caller's gang of tasks. Submit with Go, then call Wait
// exactly once; the batch must not be reused after Wait returns.
type Batch struct {
	pool    *Pool
	tasks   []func() // queued, not yet started (FIFO)
	pending int      // submitted and not yet finished
	idle    *sync.Cond
	tag     string // attribution tag passed to the queue-wait sampler
}

// NewBatch creates an empty batch on the pool.
func (p *Pool) NewBatch() *Batch {
	return &Batch{pool: p, idle: sync.NewCond(&p.mu)}
}

// SetTag labels the batch for the pool's queue-wait sampler (fpd tags
// placement gangs with the submitting tenant). Purely observational —
// tags never affect scheduling order. Returns the batch for chaining;
// call before the first Go.
func (b *Batch) SetTag(tag string) *Batch {
	b.tag = tag
	return b
}

// Go submits one task. Tasks must not panic; they may themselves create
// and wait on new batches (nesting), but must never call Wait on the
// batch they belong to.
func (b *Batch) Go(fn func()) {
	p := b.pool
	p.mu.Lock()
	if sample := p.sampler; sample != nil {
		submitted := time.Now()
		task, tag := fn, b.tag
		fn = func() {
			sample(tag, time.Since(submitted))
			task()
		}
	}
	b.tasks = append(b.tasks, fn)
	b.pending++
	p.queued++
	if len(b.tasks) == 1 {
		p.batches = append(p.batches, b) // became runnable
	}
	p.mu.Unlock()
	p.cond.Signal()
}

// Wait runs the batch's queued tasks on the calling goroutine (helping),
// then blocks until tasks stolen by pool workers have finished too. It
// returns when every submitted task has completed.
func (b *Batch) Wait() {
	p := b.pool
	p.mu.Lock()
	for b.pending > 0 {
		if fn := b.popOwnLocked(); fn != nil {
			p.mu.Unlock()
			fn()
			p.mu.Lock()
			b.taskDoneLocked()
			continue
		}
		// Own queue drained; the stragglers are running elsewhere.
		b.idle.Wait()
	}
	p.mu.Unlock()
}

// popOwnLocked removes the batch's next queued task, maintaining the
// pool's runnable rotation.
func (b *Batch) popOwnLocked() func() {
	if len(b.tasks) == 0 {
		return nil
	}
	fn := b.tasks[0]
	b.tasks[0] = nil
	b.tasks = b.tasks[1:]
	b.pool.queued--
	if len(b.tasks) == 0 {
		b.pool.removeLocked(b)
	}
	return fn
}

// taskDoneLocked retires one finished task, waking the submitter when the
// batch is complete.
func (b *Batch) taskDoneLocked() {
	b.pending--
	if b.pending == 0 {
		b.idle.Broadcast()
	}
}

// removeLocked drops a batch from the runnable rotation, keeping the
// round-robin cursor on the same successor.
func (p *Pool) removeLocked(b *Batch) {
	for i, cur := range p.batches {
		if cur == b {
			p.batches = append(p.batches[:i], p.batches[i+1:]...)
			if p.rr > i {
				p.rr--
			}
			return
		}
	}
}

// stealLocked takes one task from the next runnable batch in round-robin
// order.
func (p *Pool) stealLocked() (*Batch, func()) {
	if len(p.batches) == 0 {
		return nil, nil
	}
	if p.rr >= len(p.batches) {
		p.rr = 0
	}
	b := p.batches[p.rr]
	fn := b.tasks[0]
	b.tasks[0] = nil
	b.tasks = b.tasks[1:]
	p.queued--
	if len(b.tasks) == 0 {
		p.removeLocked(b)
	} else {
		p.rr++ // fairness: next turn serves the next batch
	}
	return b, fn
}

// worker is the pool goroutine loop: steal fairly, run, repeat; exit on
// close or shrink.
func (p *Pool) worker() {
	p.mu.Lock()
	for {
		if p.closed || p.live > p.target {
			p.live--
			p.mu.Unlock()
			return
		}
		b, fn := p.stealLocked()
		if fn == nil {
			p.cond.Wait()
			continue
		}
		p.mu.Unlock()
		fn()
		p.mu.Lock()
		b.taskDoneLocked()
	}
}
