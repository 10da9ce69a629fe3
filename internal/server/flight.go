package server

import (
	"context"

	"repro/internal/flow"
	"repro/internal/obs"
)

// The in-flight table: one map under the job engine's mutex
// (JobEngine.inflight), keyed by cache key. A submission registers its
// key with its job, so an identical submission returns that job. A
// computation (a solo job's placement or a gang sub-placement) claims its
// per-graph key when it starts; another computation reaching a claimed
// key waits for the claimant's result and retries if the claimant fails.
// A computation reaching a key whose owner job is still queued claims it
// and computes it itself: jobs start in FIFO order, so that owner was
// submitted later, and waiting on it could deadlock a full engine. So
// every wait is on running work.

// flight is one in-flight cache key. owner is the live job submitted under
// the key (nil when there is none, e.g. only a gang sub-placement has
// reached it); done is nil until a computation claims the key and closes
// once res/err are final.
type flight struct {
	owner *job
	done  chan struct{}
	res   *PlaceResult
	err   error
}

// claim registers a computation of key. lead reports whether the caller
// claimed it (and therefore must compute it and settle the flight);
// otherwise f is a running computation of the key to wait on.
func (e *JobEngine) claim(key string) (f *flight, lead bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f = e.inflight[key]
	switch {
	case f == nil:
		f = &flight{}
		e.inflight[key] = f
	case f.done != nil:
		return f, false
	}
	f.done = make(chan struct{})
	return f, true
}

// settle publishes a claimant's outcome and releases the claim. A key
// whose owner job is still live goes back to that job, unclaimed, so
// identical submissions keep deduping onto it; any other key is retired.
// Either way the claim is gone before done closes, so a waiter that sees
// a failed flight and retries hits the cache or claims the key itself.
func (e *JobEngine) settle(key string, f *flight, res *PlaceResult, err error) {
	e.mu.Lock()
	if e.inflight[key] == f {
		if f.owner != nil {
			e.inflight[key] = &flight{owner: f.owner}
		} else {
			delete(e.inflight, key)
		}
	}
	f.res, f.err = res, err
	e.mu.Unlock()
	close(f.done)
}

// runShared executes one placement with cache consultation and in-flight
// dedup: a cache hit returns immediately; otherwise the caller either
// claims the key (computes, fills the cache, wakes the waiters) or waits
// for the running claimant. A waiter whose claimant fails or is canceled
// retries — its own context may still be live, and correctness must not
// depend on another request's lifecycle.
//
// tc is the tenant the computation is charged to. Only the claimant's
// tenant pays for the oracle work — the work runs once, so charging the
// waiters too would double-bill shared computations.
func (s *Server) runShared(ctx context.Context, key string, spec PlaceSpec, m *flow.Model, graphID string, tc *obs.TenantCounters) (*PlaceResult, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if res, ok := s.cache.get(key); ok {
			return res, nil
		}
		f, lead := s.jobs.claim(key)
		if lead {
			// Deferred so a panicking execute still wakes the waiters
			// (with errInternal, and they retry) on its way to the
			// job's or the handler's recover.
			var res *PlaceResult
			err := errInternal
			defer func() { s.jobs.settle(key, f, res, err) }()
			res, err = s.execute(ctx, spec, m, graphID, tc)
			if err == nil {
				s.cache.put(key, res)
			}
			return res, err
		}
		s.acct.Fleet().Add(obs.FlightsJoined, 1)
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.err == nil {
			return f.res, nil
		}
		// The claimant failed or was canceled; loop and recompute (or pick
		// up a newer claimant / cache entry).
	}
}
