package sched

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestZeroWorkerPoolCompletesInline proves the helping invariant: a pool
// with no workers still completes every batch, entirely on the submitter.
func TestZeroWorkerPoolCompletesInline(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	var ran atomic.Int64
	b := p.NewBatch()
	for i := 0; i < 100; i++ {
		b.Go(func() { ran.Add(1) })
	}
	b.Wait()
	if ran.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", ran.Load())
	}
	if d := p.QueueDepth(); d != 0 {
		t.Fatalf("queue depth %d after Wait", d)
	}
}

// TestTasksRunExactlyOnce hammers a small pool with many batches from many
// submitters and checks no task is lost or double-run (run under -race).
func TestTasksRunExactlyOnce(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	const submitters, tasks = 8, 200
	var wg sync.WaitGroup
	counts := make([][]atomic.Int64, submitters)
	for s := range counts {
		counts[s] = make([]atomic.Int64, tasks)
	}
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			b := p.NewBatch()
			for i := 0; i < tasks; i++ {
				i := i
				b.Go(func() { counts[s][i].Add(1) })
			}
			b.Wait()
		}(s)
	}
	wg.Wait()
	for s := range counts {
		for i := range counts[s] {
			if got := counts[s][i].Load(); got != 1 {
				t.Fatalf("submitter %d task %d ran %d times", s, i, got)
			}
		}
	}
}

// TestNestedBatches checks a task may itself submit and wait on an inner
// batch on the same pool without deadlock — the shape PlaceBatch creates
// (sub-placement tasks whose gain evaluations are inner batches).
func TestNestedBatches(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var ran atomic.Int64
	outer := p.NewBatch()
	for i := 0; i < 6; i++ {
		outer.Go(func() {
			inner := p.NewBatch()
			for j := 0; j < 10; j++ {
				inner.Go(func() { ran.Add(1) })
			}
			inner.Wait()
		})
	}
	done := make(chan struct{})
	go func() { outer.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested batches deadlocked")
	}
	if ran.Load() != 60 {
		t.Fatalf("ran %d inner tasks, want 60", ran.Load())
	}
}

// TestRoundRobinFairness checks a small batch is not starved behind a big
// one: with one worker and the big batch's submitter parked (not helping
// yet), the worker must alternate between batches, so the small batch
// finishes while most of the big one is still queued.
func TestRoundRobinFairness(t *testing.T) {
	p := NewPool(1)
	defer p.Close()

	var bigDoneBeforeSmall atomic.Int64
	gate := make(chan struct{}) // holds the worker until both batches queue
	big := p.NewBatch()
	big.Go(func() { <-gate }) // first big task parks the lone worker
	const bigTasks = 100
	for i := 1; i < bigTasks; i++ {
		big.Go(func() { bigDoneBeforeSmall.Add(1) })
	}
	small := p.NewBatch()
	smallDone := make(chan int64, 1)
	small.Go(func() { smallDone <- bigDoneBeforeSmall.Load() })

	close(gate)
	// Let the lone worker drain alone until the small batch's task has
	// run: calling Wait first would add helping submitters whose relative
	// scheduling is nondeterministic, letting big's helper race past the
	// worker's round-robin.
	ahead := <-smallDone
	big.Wait()
	small.Wait()

	if ahead > bigTasks/2 {
		t.Fatalf("small batch waited behind %d of %d big tasks — not fair", ahead, bigTasks)
	}
}

// TestResizeGrowShrink checks workers can be added and retired live, and
// that a shrink to zero still lets batches complete via helping.
func TestResizeGrowShrink(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	p.Resize(4)
	if w := p.Workers(); w != 4 {
		t.Fatalf("workers = %d, want 4", w)
	}
	p.Resize(0)
	// Retired workers park in cond.Wait until signaled; submit work to
	// flush them out and prove helping still completes it.
	var ran atomic.Int64
	b := p.NewBatch()
	for i := 0; i < 50; i++ {
		b.Go(func() { ran.Add(1) })
	}
	b.Wait()
	if ran.Load() != 50 {
		t.Fatalf("ran %d, want 50", ran.Load())
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		live := p.live
		p.mu.Unlock()
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still live after Resize(0)", live)
		}
		p.cond.Broadcast()
		time.Sleep(time.Millisecond)
	}
}

// TestCloseRetiresWorkers checks Close stops the pool goroutines and that
// batches submitted after Close still complete inline.
func TestCloseRetiresWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(8)
	p.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("workers leaked: %d goroutines, started at %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	var ran atomic.Int64
	b := p.NewBatch()
	b.Go(func() { ran.Add(1) })
	b.Wait()
	if ran.Load() != 1 {
		t.Fatal("batch on closed pool did not run inline")
	}
}

// TestDefaultPoolSingleton checks Default returns one shared pool and
// SetDefaultWorkers resizes it.
func TestDefaultPoolSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default not a singleton")
	}
	old := Default().Workers()
	SetDefaultWorkers(old + 2)
	if got := Default().Workers(); got != old+2 {
		t.Fatalf("workers = %d, want %d", got, old+2)
	}
	SetDefaultWorkers(0) // reset to GOMAXPROCS
	if got := Default().Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("reset workers = %d, want GOMAXPROCS", got)
	}
}

// TestQueueWaitSampler: every task submitted while a sampler is
// installed produces exactly one non-negative sample carrying the
// batch's tag — whether it runs on a pool worker or inline on the
// helping submitter — and uninstalling stops sampling.
func TestQueueWaitSampler(t *testing.T) {
	for _, workers := range []int{0, 2} {
		p := NewPool(workers)
		defer p.Close()
		var samples atomic.Int64
		var negative atomic.Int64
		var wrongTag atomic.Int64
		p.SetQueueWaitSampler(func(tag string, wait time.Duration) {
			samples.Add(1)
			if wait < 0 {
				negative.Add(1)
			}
			if tag != "tenant-a" {
				wrongTag.Add(1)
			}
		})
		const tasks = 50
		b := p.NewBatch().SetTag("tenant-a")
		var ran atomic.Int64
		for i := 0; i < tasks; i++ {
			b.Go(func() { ran.Add(1) })
		}
		b.Wait()
		if wrongTag.Load() != 0 {
			t.Errorf("workers=%d: %d samples with wrong tag", workers, wrongTag.Load())
		}
		if ran.Load() != tasks {
			t.Fatalf("workers=%d: ran %d tasks, want %d", workers, ran.Load(), tasks)
		}
		if samples.Load() != tasks {
			t.Errorf("workers=%d: %d samples, want %d", workers, samples.Load(), tasks)
		}
		if negative.Load() != 0 {
			t.Errorf("workers=%d: %d negative waits", workers, negative.Load())
		}

		p.SetQueueWaitSampler(nil)
		b2 := p.NewBatch()
		b2.Go(func() {})
		b2.Wait()
		if samples.Load() != tasks {
			t.Errorf("workers=%d: sampler fired after uninstall", workers)
		}
	}
}

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestSplit pins Split's contract on the Default pool at 0, 1 and 4
// workers: chunk i is [lo+i·c, min(lo+(i+1)·c, hi)) with c = ⌈n/min(parts,
// n)⌉, so the chunks tile the span in order, number at most parts and are
// the same at every pool size; each chunk is one task the sampler sees
// once, with the batch's tag; parts ≤ 1 runs inline on the caller with no
// sampler call, a one-item span at parts = 2 is still one sampled task,
// and an empty span runs nothing.
func TestSplit(t *testing.T) {
	old := Default().Workers()
	t.Cleanup(func() {
		Default().SetQueueWaitSampler(nil)
		Default().Resize(old)
	})
	var samples atomic.Int64
	var wrongTag atomic.Int64
	Default().SetQueueWaitSampler(func(tag string, _ time.Duration) {
		samples.Add(1)
		if tag != "split-test" {
			wrongTag.Add(1)
		}
	})
	type chunk struct{ lo, hi int }
	cases := []struct{ lo, hi, parts int }{
		{0, 10, 3}, {0, 10, 4}, {3, 103, 7}, {0, 7, 7}, {0, 5, 8},
		{5, 6, 2}, {2, 9, 1}, {2, 9, 0}, {2, 9, -3}, {4, 4, 3}, {4, 4, 1},
	}
	var first [][]chunk
	for _, workers := range []int{0, 1, 4} {
		Default().Resize(workers)
		for ci, tc := range cases {
			n := tc.hi - tc.lo
			var mu sync.Mutex
			got := map[int]chunk{}
			caller, inline := goid(), true
			samples.Store(0)
			Split("split-test", tc.lo, tc.hi, tc.parts, func(i, lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				if _, dup := got[i]; dup {
					t.Errorf("workers=%d %+v: chunk %d ran twice", workers, tc, i)
				}
				got[i] = chunk{lo, hi}
				inline = inline && goid() == caller
			})
			chunks := make([]chunk, len(got))
			for i := range chunks {
				c, ok := got[i]
				if !ok {
					t.Fatalf("workers=%d %+v: chunk indices %v not 0..%d", workers, tc, got, len(got)-1)
				}
				chunks[i] = c
			}
			if len(chunks) > max(tc.parts, 1) {
				t.Fatalf("workers=%d %+v: %d chunks exceed parts", workers, tc, len(chunks))
			}
			next := tc.lo
			for _, c := range chunks {
				if c.lo != next || c.hi <= c.lo {
					t.Fatalf("workers=%d %+v: chunks %v do not tile [%d, %d)", workers, tc, chunks, tc.lo, tc.hi)
				}
				next = c.hi
			}
			if next != tc.hi {
				t.Fatalf("workers=%d %+v: chunks %v stop at %d", workers, tc, chunks, next)
			}
			var want []chunk
			if n > 0 {
				k := min(max(tc.parts, 1), n)
				c := (n + k - 1) / k
				for lo := tc.lo; lo < tc.hi; lo += c {
					want = append(want, chunk{lo, min(lo+c, tc.hi)})
				}
			}
			if !slices.Equal(chunks, want) {
				t.Fatalf("workers=%d %+v: chunks %v, want %v", workers, tc, chunks, want)
			}
			wantSamples := int64(len(chunks))
			if tc.parts <= 1 {
				wantSamples = 0
				if !inline {
					t.Errorf("workers=%d %+v: parts ≤ 1 left the calling goroutine", workers, tc)
				}
			}
			if s := samples.Load(); s != wantSamples {
				t.Errorf("workers=%d %+v: %d sampled tasks, want %d", workers, tc, s, wantSamples)
			}
			if workers == 0 {
				first = append(first, chunks)
			} else if !slices.Equal(chunks, first[ci]) {
				t.Fatalf("workers=%d %+v: boundaries %v differ from 0 workers' %v", workers, tc, chunks, first[ci])
			}
		}
	}
	if wrongTag.Load() != 0 {
		t.Errorf("%d samples carried the wrong tag", wrongTag.Load())
	}
}
