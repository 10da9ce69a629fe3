package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/server"
)

// serve runs one request straight through the handler and decodes a JSON
// response into out (when non-nil), returning the status code.
func serve(t testing.TB, h http.Handler, method, target, body string, out any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, target, rec.Body.Bytes(), err)
		}
	}
	return rec.Code
}

// uploadArenaGraph registers a twitter graph of about 22k nodes: large enough that
// one float scratch arena (25 bytes per node) dwarfs a request's other
// allocations.
func uploadArenaGraph(t testing.TB, h http.Handler) server.GraphInfo {
	t.Helper()
	var info server.GraphInfo
	body := `{"generator":"twitter","scale":0.25,"seed":5}`
	if code := serve(t, h, "POST", "/v1/graphs", body, &info); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	return info
}

// TestRequestArenaRecycled pins ReleaseScratch on the evaluate and sync
// placement paths: once warm, repeated requests on one graph reuse the
// plan's scratch arena instead of allocating a 25·n-byte one each. Without
// the release, evaluate allocates about 26·n bytes per request and gmax
// about 42·n (its impacts and ranking slices are 17·n).
func TestRequestArenaRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool randomly drops puts under -race; TestRequestArenaConcurrent covers these paths there")
	}
	srv := server.New(server.Config{})
	t.Cleanup(srv.Close)
	info := uploadArenaGraph(t, srv)
	arena := uint64(25 * info.Nodes)

	perRequest := func(method, target, body string) uint64 {
		for i := 0; i < 4; i++ { // warm: invariants, one arena per P
			if code := serve(t, srv, method, target, body, nil); code != http.StatusOK {
				t.Fatalf("%s %s: status %d", method, target, code)
			}
		}
		const reps = 32
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			serve(t, srv, method, target, body, nil)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / reps
	}

	eval := perRequest("GET", fmt.Sprintf("/v1/graphs/%s/evaluate?filters=5,17,4000", info.ID), "")
	if eval > arena/4 {
		t.Errorf("evaluate allocates %d B per request, want < %d (a quarter arena)", eval, arena/4)
	}
	gmax := perRequest("POST", "/v1/graphs/"+info.ID+"/place", `{"algorithm":"gmax","k":5}`)
	if gmax > arena {
		t.Errorf("gmax allocates %d B per request, want < %d (one arena)", gmax, arena)
	}
	t.Logf("n=%d arena=%d B: evaluate %d B/req, gmax %d B/req", info.Nodes, arena, eval, gmax)
}

// TestRequestArenaConcurrent drives evaluate and sync placements on one
// freshly registered graph from several goroutines, so the model's
// invariants are computed while other requests already read them, and
// checks every response reports the same objective. Run it with -race.
func TestRequestArenaConcurrent(t *testing.T) {
	srv := server.New(server.Config{})
	t.Cleanup(srv.Close)
	var info server.GraphInfo
	body := `{"generator":"layered","levels":10,"perlevel":50,"x":1,"y":3,"seed":9}`
	if code := serve(t, srv, "POST", "/v1/graphs", body, &info); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	const workers = 6
	results := make([][2]server.PlaceResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var ev, pl server.PlaceResult
				if code := serve(t, srv, "GET", "/v1/graphs/"+info.ID+"/evaluate?filters=60,61,62", "", &ev); code != http.StatusOK {
					t.Errorf("evaluate: status %d", code)
					return
				}
				engine := []string{"float", "big"}[i%2]
				spec := fmt.Sprintf(`{"algorithm":"gmax","k":3,"engine":%q}`, engine)
				if code := serve(t, srv, "POST", "/v1/graphs/"+info.ID+"/place", spec, &pl); code != http.StatusOK {
					t.Errorf("gmax: status %d", code)
					return
				}
				if i == 0 {
					results[w] = [2]server.PlaceResult{ev, pl}
				} else if ev.PhiEmpty != results[w][0].PhiEmpty || ev.F != results[w][0].F || pl.PhiEmpty != ev.PhiEmpty {
					t.Errorf("worker %d round %d: evaluate %+v, gmax Φ(∅) %v; first round %+v", w, i, ev, pl.PhiEmpty, results[w][0])
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if results[w][0].F != results[0][0].F || results[w][1].F != results[0][1].F {
			t.Errorf("worker %d objective %v/%v, worker 0 %v/%v", w, results[w][0].F, results[w][1].F, results[0][0].F, results[0][1].F)
		}
	}
}
