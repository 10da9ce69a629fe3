package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/graph"
)

// TestFlightTableJoinFinish pins the leader/follower contract.
func TestFlightTableJoinFinish(t *testing.T) {
	ft := newFlightTable()
	f1, leader := ft.join("k")
	if !leader {
		t.Fatal("first join is not leader")
	}
	f2, leader2 := ft.join("k")
	if leader2 || f2 != f1 {
		t.Fatal("second join did not attach to the in-flight leader")
	}
	res := &PlaceResult{Filters: []int{7}}
	ft.finish("k", f1, res, nil)
	select {
	case <-f2.done:
	default:
		t.Fatal("finish did not wake followers")
	}
	if f2.res != res || f2.err != nil {
		t.Fatal("follower observed wrong outcome")
	}
	// The key is retired: the next join leads again.
	if _, leader := ft.join("k"); !leader {
		t.Fatal("key not retired after finish")
	}
}

// TestCrossKindDedupGangSoloRace is the regression test for the ROADMAP
// item: a gang's sub-placement and a solo job with the same per-graph
// cache key must share ONE computation. The test takes flight leadership
// for the key itself, submits both kinds, and proves both jobs block as
// followers (flights_joined reaches 2 with zero oracle evaluations), then
// finish with the leader's sentinel result — neither ever computed.
func TestCrossKindDedupGangSoloRace(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	defer srv.Close()

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
	f, leader := srv.flights.join(key)
	if !leader {
		t.Fatal("test could not take flight leadership")
	}

	// Solo job, exactly as handlePlace submits it.
	solo, err := srv.jobs.SubmitFunc(info.ID, spec, key, JobMeta{}, func(ctx context.Context) (*PlaceResult, error) {
		return srv.runShared(ctx, key, spec, m, info.ID, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Gang job over the same graph, exactly as handlePlaceBatch submits it.
	bs := newBatchState([]BatchItem{{GraphID: info.ID, State: JobQueued}})
	gang, err := srv.jobs.SubmitBatch(info.ID, spec, "batch|"+key, JobMeta{}, bs,
		srv.runBatch([]batchMiss{{graphID: info.ID, model: m, key: key}}, spec, bs, nil))
	if err != nil {
		t.Fatal(err)
	}

	// Both kinds must reach the flight table and park as followers.
	deadline := time.Now().Add(10 * time.Second)
	for srv.metrics.FlightsJoined.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("flights_joined = %d, want 2", srv.metrics.FlightsJoined.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.metrics.OracleEvaluations.Load(); got != 0 {
		t.Fatalf("oracle_evaluations = %d while both kinds should be parked", got)
	}

	// Publish the leader's result; both jobs must adopt it verbatim.
	sentinel := &PlaceResult{GraphID: info.ID, Algorithm: "gall", K: 1, Filters: []int{3}}
	srv.cache.put(key, sentinel)
	srv.flights.finish(key, f, sentinel, nil)

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
	if got := srv.metrics.OracleEvaluations.Load(); got != 0 {
		t.Fatalf("oracle_evaluations = %d, want 0 (work ran twice?)", got)
	}
}

// TestFlightFollowerRetriesAfterLeaderFailure: a follower whose leader
// fails recomputes instead of inheriting the failure.
func TestFlightFollowerRetriesAfterLeaderFailure(t *testing.T) {
	srv := New(Config{Workers: 2, QueueDepth: 8})
	defer srv.Close()

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

	f, leader := srv.flights.join(key)
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
	for srv.metrics.FlightsJoined.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined")
		}
		time.Sleep(time.Millisecond)
	}
	srv.flights.finish(key, f, nil, errors.New("leader crashed"))

	o := <-got
	if o.err != nil {
		t.Fatalf("follower inherited leader failure: %v", o.err)
	}
	if len(o.res.Filters) != 1 || o.res.Filters[0] != 3 {
		t.Fatalf("follower recomputed wrong result: %+v", o.res)
	}
}
