package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
)

// newTwoSlotServer builds a Server that runs two jobs at once whatever the
// CPU count: its run slots follow the process-wide scheduler, which is
// sized to 2 for the test and restored afterwards.
func newTwoSlotServer(t *testing.T) *Server {
	t.Helper()
	old := sched.Default().Workers()
	t.Cleanup(func() { sched.SetDefaultWorkers(old) })
	srv := New(Config{SchedWorkers: 2, QueueDepth: 8})
	t.Cleanup(srv.Close)
	return srv
}

// TestFlightTableJoinFinish pins the leader/follower contract of the
// in-flight table's claims.
func TestFlightTableJoinFinish(t *testing.T) {
	e, _ := newTestEngine(1, 1)
	defer e.Close()
	f1, leader := e.claim("k")
	if !leader {
		t.Fatal("first join is not leader")
	}
	f2, leader2 := e.claim("k")
	if leader2 || f2 != f1 {
		t.Fatal("second join did not attach to the in-flight leader")
	}
	res := &PlaceResult{Filters: []int{7}}
	e.settle("k", f1, res, nil)
	select {
	case <-f2.done:
	default:
		t.Fatal("finish did not wake followers")
	}
	if f2.res != res || f2.err != nil {
		t.Fatal("follower observed wrong outcome")
	}
	// The key is retired: the next join leads again.
	if _, leader := e.claim("k"); !leader {
		t.Fatal("key not retired after finish")
	}
}

// TestFlightClaimQueuedOwner pins the queued-owner rule: a computation
// reaching a key whose owner job has not started claims the key itself
// (later arrivals join it), and settling hands the key back to the still
// queued owner, so identical submissions keep deduping onto that job until
// it is gone.
func TestFlightClaimQueuedOwner(t *testing.T) {
	e, acct := newTestEngine(1, 4)
	defer e.Close()
	release := holdSlot(t, e)
	defer close(release)
	owner, err := e.Submit("g1", PlaceSpec{Algorithm: "gall", K: 1}, "k", JobMeta{}, nil, okFn)
	if err != nil {
		t.Fatal(err)
	}
	f, lead := e.claim("k")
	if !lead {
		t.Fatal("claim waited on a queued owner")
	}
	if f2, lead2 := e.claim("k"); lead2 || f2 != f {
		t.Fatal("second claim did not join the running claimant")
	}
	e.settle("k", f, &PlaceResult{}, nil)
	dup, err := e.Submit("g1", PlaceSpec{Algorithm: "gall", K: 1}, "k", JobMeta{}, nil, okFn)
	if err != nil || dup.ID != owner.ID {
		t.Fatalf("submission after settle: job %s err %v, want the queued owner %s", dup.ID, err, owner.ID)
	}
	if got := acct.Total(obs.JobsDeduped); got != 1 {
		t.Fatalf("jobs_deduped = %d, want 1", got)
	}
	if _, ok := e.Cancel(owner.ID); !ok {
		t.Fatal("cancel of the queued owner failed")
	}
	next, err := e.Submit("g1", PlaceSpec{Algorithm: "gall", K: 1}, "k", JobMeta{}, nil, okFn)
	if err != nil || next.ID == owner.ID {
		t.Fatalf("submission after the owner was canceled: job %s err %v, want a new job", next.ID, err)
	}
}

// TestCrossKindDedupGangSoloRace is the regression test for the ROADMAP
// item: a gang's sub-placement and a solo job with the same per-graph
// cache key must share ONE computation. The test takes flight leadership
// for the key itself, submits both kinds, and proves both jobs block as
// followers (flights_joined reaches 2 with zero oracle evaluations), then
// finish with the leader's sentinel result — neither ever computed.
func TestCrossKindDedupGangSoloRace(t *testing.T) {
	srv := newTwoSlotServer(t)

	g := graph.MustFromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	m, err := flow.NewModel(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	info := srv.registry.Add("diamond", m)
	spec := PlaceSpec{Algorithm: "gall", K: 1}
	if _, err := spec.validate(m, 4); err != nil {
		t.Fatal(err)
	}
	key := spec.cacheKey(info.ID, 0, m.Sources())

	// Become the leader for the per-graph key before either job starts.
	f, leader := srv.jobs.claim(key)
	if !leader {
		t.Fatal("test could not take flight leadership")
	}

	// Solo job, exactly as handlePlace submits it.
	solo, err := srv.jobs.Submit(info.ID, spec, key, JobMeta{}, nil, func(ctx context.Context) (*PlaceResult, error) {
		return srv.runShared(ctx, key, spec, m, info.ID, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Gang job over the same graph, exactly as handlePlaceBatch submits it.
	bs := newBatchState([]BatchItem{{GraphID: info.ID, State: JobQueued}})
	gang, err := srv.jobs.Submit(info.ID, spec, "batch|"+key, JobMeta{}, bs,
		srv.runBatch([]batchMiss{{graphID: info.ID, model: m, key: key}}, spec, bs, nil))
	if err != nil {
		t.Fatal(err)
	}

	// Both kinds must reach the flight table and park as followers.
	deadline := time.Now().Add(10 * time.Second)
	for srv.acct.Total(obs.FlightsJoined) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("flights_joined = %d, want 2", srv.acct.Total(obs.FlightsJoined))
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.acct.Total(obs.OracleEvaluations); got != 0 {
		t.Fatalf("oracle_evaluations = %d while both kinds should be parked", got)
	}

	// Publish the leader's result; both jobs must adopt it verbatim.
	sentinel := &PlaceResult{GraphID: info.ID, Algorithm: "gall", K: 1, Filters: []int{3}}
	srv.cache.put(key, sentinel)
	srv.jobs.settle(key, f, sentinel, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	soloDone, err := srv.jobs.Wait(ctx, solo.ID)
	if err != nil || soloDone.State != JobDone {
		t.Fatalf("solo job: state %s err %v", soloDone.State, err)
	}
	if len(soloDone.Result.Filters) != 1 || soloDone.Result.Filters[0] != 3 {
		t.Fatalf("solo result %+v did not come from the shared flight", soloDone.Result)
	}
	gangDone, err := srv.jobs.Wait(ctx, gang.ID)
	if err != nil || gangDone.State != JobDone {
		t.Fatalf("gang job: state %s err %v", gangDone.State, err)
	}
	item := gangDone.Batch[0]
	if item.State != JobDone || len(item.Result.Filters) != 1 || item.Result.Filters[0] != 3 {
		t.Fatalf("gang item %+v did not come from the shared flight", item)
	}
	// The decisive assertion: NO placement executed anywhere.
	if got := srv.acct.Total(obs.OracleEvaluations); got != 0 {
		t.Fatalf("oracle_evaluations = %d, want 0 (work ran twice?)", got)
	}
}

// TestFlightFollowerRetriesAfterLeaderFailure: a follower whose leader
// fails recomputes instead of inheriting the failure.
func TestFlightFollowerRetriesAfterLeaderFailure(t *testing.T) {
	srv := newTwoSlotServer(t)

	// A diamond with a tail: node 3 receives 2 copies and relays them to 4,
	// so greedy places its one filter at 3.
	g := graph.MustFromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}})
	m, err := flow.NewModel(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	info := srv.registry.Add("diamond-tail", m)
	spec := PlaceSpec{Algorithm: "gall", K: 1}
	if _, err := spec.validate(m, 4); err != nil {
		t.Fatal(err)
	}
	key := spec.cacheKey(info.ID, 0, m.Sources())

	f, leader := srv.jobs.claim(key)
	if !leader {
		t.Fatal("test could not take flight leadership")
	}
	type out struct {
		res *PlaceResult
		err error
	}
	got := make(chan out, 1)
	go func() {
		res, err := srv.runShared(context.Background(), key, spec, m, info.ID, nil)
		got <- out{res, err}
	}()
	// Wait for the follower to park, then fail the leader.
	deadline := time.Now().Add(10 * time.Second)
	for srv.acct.Total(obs.FlightsJoined) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined")
		}
		time.Sleep(time.Millisecond)
	}
	srv.jobs.settle(key, f, nil, errors.New("leader crashed"))

	o := <-got
	if o.err != nil {
		t.Fatalf("follower inherited leader failure: %v", o.err)
	}
	if len(o.res.Filters) != 1 || o.res.Filters[0] != 3 {
		t.Fatalf("follower recomputed wrong result: %+v", o.res)
	}
}

// TestGangComputesKeyOfQueuedSolo: with one run slot, a running gang whose
// sub-placement reaches a key owned by a queued solo job computes the key
// itself — waiting would deadlock, since the solo job cannot start until
// the gang frees the slot — and the solo job then finishes from the cache.
// The oracle work is exactly one placement's.
func TestGangComputesKeyOfQueuedSolo(t *testing.T) {
	old := sched.Default().Workers()
	t.Cleanup(func() { sched.SetDefaultWorkers(old) })
	srv := New(Config{SchedWorkers: 1, QueueDepth: 8})
	t.Cleanup(srv.Close)

	g := graph.MustFromEdges(5, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}})
	m, err := flow.NewModel(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	info := srv.registry.Add("diamond-tail", m)
	spec := PlaceSpec{Algorithm: "gall", K: 1}
	if _, err := spec.validate(m, 4); err != nil {
		t.Fatal(err)
	}
	key := spec.cacheKey(info.ID, 0, m.Sources())

	// One placement's oracle work, measured on its own ledger.
	ref := obs.NewAccountant(0)
	if _, err := spec.execute(context.Background(), m, info.ID, ref.Tenant("")); err != nil {
		t.Fatal(err)
	}
	want := ref.Total(obs.OracleEvaluations)
	if want == 0 {
		t.Fatal("reference placement did no oracle work")
	}

	// Hold the one slot, queue the gang, then the solo job behind it. Both
	// charge the same tenant, as two requests from one client would.
	tc := srv.acct.Tenant("acme")
	release := make(chan struct{})
	if _, err := srv.jobs.Submit("hold", spec, "hold", JobMeta{}, nil, blockingFn(release)); err != nil {
		t.Fatal(err)
	}
	bs := newBatchState([]BatchItem{{GraphID: info.ID, State: JobQueued}})
	gang, err := srv.jobs.Submit(info.ID, spec, "batch|"+key, JobMeta{}, bs,
		srv.runBatch([]batchMiss{{graphID: info.ID, model: m, key: key}}, spec, bs, tc))
	if err != nil {
		t.Fatal(err)
	}
	solo, err := srv.jobs.Submit(info.ID, spec, key, JobMeta{}, nil, func(ctx context.Context) (*PlaceResult, error) {
		return srv.runShared(ctx, key, spec, m, info.ID, tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	gangDone, err := srv.jobs.Wait(ctx, gang.ID)
	if err != nil || gangDone.State != JobDone {
		t.Fatalf("gang job: state %s err %v", gangDone.State, err)
	}
	soloDone, err := srv.jobs.Wait(ctx, solo.ID)
	if err != nil || soloDone.State != JobDone {
		t.Fatalf("solo job: state %s err %v", soloDone.State, err)
	}
	item := gangDone.Batch[0]
	if item.State != JobDone || len(item.Result.Filters) != 1 || item.Result.Filters[0] != 3 {
		t.Fatalf("gang item %+v, want filter 3", item)
	}
	if !soloDone.Result.Cached || len(soloDone.Result.Filters) != 1 || soloDone.Result.Filters[0] != 3 {
		t.Fatalf("solo result %+v did not come from the gang's cache entry", soloDone.Result)
	}
	if got := srv.acct.Total(obs.OracleEvaluations); got != want {
		t.Fatalf("oracle_evaluations = %d, want one placement's %d", got, want)
	}
	if got := srv.acct.Total(obs.FlightsJoined); got != 0 {
		t.Fatalf("flights_joined = %d, want 0 (nothing should wait)", got)
	}
}
