package server

import (
	"context"
	"sync"

	"repro/internal/flow"
	"repro/internal/obs"
)

// Cross-kind in-flight dedup. The job engine's active-key map dedups
// identical SUBMISSIONS, but it cannot see across job kinds: a gang job's
// key is the joined per-graph miss keys ("batch|k1&k2…"), so a solo job
// for k1 submitted while the gang is mid-flight used to start a second,
// identical placement. The flight table closes that gap at EXECUTION
// time: every placement — solo job or gang sub-placement — registers its
// per-graph cache key when it starts computing, and any other worker
// reaching the same key waits for the leader's result instead of
// recomputing.

// flight is one in-flight placement computation; done closes when res/err
// are final.
type flight struct {
	done chan struct{}
	res  *PlaceResult
	err  error
}

// flightTable maps per-graph cache keys to in-flight computations.
type flightTable struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightTable() *flightTable {
	return &flightTable{m: make(map[string]*flight)}
}

// join returns the in-flight computation for key, creating it when absent;
// leader reports whether the caller created it (and therefore must compute
// and finish it).
func (t *flightTable) join(key string) (f *flight, leader bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.m[key]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	t.m[key] = f
	return f, true
}

// finish publishes the leader's outcome and retires the key. The table is
// cleared before done closes, so a follower that sees a failed flight and
// retries will either hit the cache or become the new leader.
func (t *flightTable) finish(key string, f *flight, res *PlaceResult, err error) {
	t.mu.Lock()
	if t.m[key] == f {
		delete(t.m, key)
	}
	t.mu.Unlock()
	f.res, f.err = res, err
	close(f.done)
}

// runShared executes one placement with cache consultation and cross-kind
// in-flight dedup: a cache hit returns immediately; otherwise the caller
// either becomes the leader for the key (computes, fills the cache, wakes
// the followers) or waits for the current leader. A follower whose leader
// fails or is canceled retries — its own context may still be live, and
// correctness must not depend on another request's lifecycle.
//
// tc is the tenant the computation is charged to. Only the leader's
// tenant pays for the oracle work — the work runs once, so charging the
// followers too would double-bill shared computations.
func (s *Server) runShared(ctx context.Context, key string, spec PlaceSpec, m *flow.Model, graphID string, tc *obs.TenantCounters) (*PlaceResult, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if res, ok := s.cache.peek(key); ok {
			return res, nil
		}
		f, leader := s.flights.join(key)
		if leader {
			res, err := spec.execute(ctx, m, graphID, s.metrics, tc)
			if err == nil {
				s.cache.put(key, res)
			}
			s.flights.finish(key, f, res, err)
			return res, err
		}
		s.metrics.FlightsJoined.Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.err == nil {
			return f.res, nil
		}
		// Leader failed or was canceled; loop and recompute (or pick up a
		// newer leader / cache entry).
	}
}
