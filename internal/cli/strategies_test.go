package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
)

// strategySurfaces is one graph loaded into all three surfaces that
// resolve strategy names: core.Place, an in-process fpd and fpplace.
type strategySurfaces struct {
	t       *testing.T
	g       *graph.Digraph
	path    string // the edge-list file fpplace reads
	fpd     *httptest.Server
	graphID string
}

func newStrategySurfaces(t *testing.T) *strategySurfaces {
	t.Helper()
	g, _ := gen.RandomDAG(60, 0.1, 3)
	var text bytes.Buffer
	if err := graph.WriteEdgeList(&text, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.edges")
	if err := os.WriteFile(path, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Every surface parses the same text, so node ids agree.
	g, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	s := &strategySurfaces{t: t, g: g, path: path, fpd: ts}
	var info server.GraphInfo
	if code := s.do("POST", "/v1/graphs", server.GraphSpec{Edges: text.String()}, &info); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	s.graphID = info.ID
	return s
}

// do sends one JSON request to fpd and decodes the response into out.
func (s *strategySurfaces) do(method, path string, body, out any) int {
	s.t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		s.t.Fatal(err)
	}
	req, err := http.NewRequest(method, s.fpd.URL+path, bytes.NewReader(b))
	if err != nil {
		s.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		s.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			s.t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// core places through core.Place and returns the filters as labels.
func (s *strategySurfaces) core(name string) (string, error) {
	m, err := flow.NewModel(s.g, nil)
	if err != nil {
		s.t.Fatal(err)
	}
	res, err := core.Place(context.Background(), flow.NewFloat(m), 3, core.Options{Strategy: core.Strategy(name), Seed: 1, SampleSeed: 1})
	return s.labels(res.Filters), err
}

// fpplace places through the CLI and returns its quiet output.
func (s *strategySurfaces) fpplace(name string) (string, error) {
	var out bytes.Buffer
	err := RunFpplace([]string{"-in", s.path, "-algo", name, "-k", "3", "-seed", "1", "-q"}, nil, &out, &bytes.Buffer{})
	return strings.Join(strings.Fields(out.String()), " "), err
}

// place places through fpd, polling async jobs, and returns the result;
// a non-2xx answer returns its error text instead.
func (s *strategySurfaces) place(name string) (*server.PlaceResult, string) {
	s.t.Helper()
	var raw json.RawMessage
	code := s.do("POST", "/v1/graphs/"+s.graphID+"/place", server.PlaceSpec{Algorithm: name, K: 3, Seed: 1}, &raw)
	switch code {
	case http.StatusOK:
		var res server.PlaceResult
		if err := json.Unmarshal(raw, &res); err != nil {
			s.t.Fatal(err)
		}
		return &res, ""
	case http.StatusAccepted:
		var job server.JobInfo
		if err := json.Unmarshal(raw, &job); err != nil {
			s.t.Fatal(err)
		}
		for deadline := time.Now().Add(30 * time.Second); !job.State.Terminal(); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				s.t.Fatalf("%s: job %s did not finish", name, job.ID)
			}
			s.do("GET", "/v1/jobs/"+job.ID, nil, &job)
		}
		if job.State != server.JobDone {
			s.t.Fatalf("%s: job finished as %s (%s)", name, job.State, job.Error)
		}
		return job.Result, ""
	default:
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			s.t.Fatal(err)
		}
		return nil, e.Error
	}
}

func (s *strategySurfaces) labels(filters []int) string {
	out := make([]string, len(filters))
	for i, v := range filters {
		out[i] = s.g.Label(v)
	}
	return strings.Join(out, " ")
}

// TestStrategyTableSurfaces walks the core strategy table: every row is
// accepted by core.Place, fpd and fpplace under both of its names, with
// identical filters everywhere; an unknown name gets the same error text
// from all three; and the retired greedy-l-fast names resolve to greedy-l.
func TestStrategyTableSurfaces(t *testing.T) {
	s := newStrategySurfaces(t)
	for _, row := range core.StrategyTable() {
		t.Run(string(row.Name), func(t *testing.T) {
			want, err := s.core(string(row.Name))
			if err != nil {
				t.Fatal(err)
			}
			if want == "" && !row.Randomized {
				t.Fatal("placed no filters; the graph is too easy to tell strategies apart")
			}
			for _, name := range []string{string(row.Name), row.Short} {
				if got, err := s.core(name); err != nil || got != want {
					t.Errorf("core.Place %q = %q, %v; want %q", name, got, err, want)
				}
				if got, err := s.fpplace(name); err != nil || got != want {
					t.Errorf("fpplace %q = %q, %v; want %q", name, got, err, want)
				}
				res, errText := s.place(name)
				if row.Serve == core.ServeNone {
					if res != nil || !strings.Contains(errText, "not served") {
						t.Errorf("fpd %q = %+v %q; want a not-served error", name, res, errText)
					}
					continue
				}
				if res == nil {
					t.Fatalf("fpd %q: %s", name, errText)
				}
				if got := s.labels(res.Filters); got != want || res.Algorithm != row.Short {
					t.Errorf("fpd %q = %q echoing %q; want %q echoing %q", name, got, res.Algorithm, want, row.Short)
				}
			}
		})
	}

	t.Run("unknown", func(t *testing.T) {
		const name = "simulated-annealing"
		_, lookupErr := core.LookupStrategy(name)
		if lookupErr == nil {
			t.Fatal("LookupStrategy accepted an unknown name")
		}
		want := lookupErr.Error()
		if _, err := s.core(name); err == nil || err.Error() != "core: "+want {
			t.Errorf("core.Place error = %v, want %q", err, "core: "+want)
		}
		if _, err := s.fpplace(name); err == nil || err.Error() != "fpplace: "+want {
			t.Errorf("fpplace error = %v, want %q", err, "fpplace: "+want)
		}
		if _, errText := s.place(name); errText != "place spec: "+want {
			t.Errorf("fpd error = %q, want %q", errText, "place spec: "+want)
		}
	})

	t.Run("legacy", func(t *testing.T) {
		want, _ := s.core("greedy-l")
		batch := func(name string) (int, server.BatchResult, server.JobInfo) {
			var raw json.RawMessage
			code := s.do("POST", "/v1/placements:batch", server.BatchPlaceSpec{
				Graphs: []string{s.graphID},
				Spec:   server.PlaceSpec{Algorithm: name, K: 3},
			}, &raw)
			var inline server.BatchResult
			var job server.JobInfo
			if code == http.StatusOK {
				json.Unmarshal(raw, &inline)
			} else {
				json.Unmarshal(raw, &job)
			}
			return code, inline, job
		}
		// Fill gl's cache slot through the batch path, which caches every
		// strategy, then check both legacy names land in it.
		code, _, job := batch("gl")
		if code != http.StatusAccepted {
			t.Fatalf("gl batch: status %d, want 202", code)
		}
		for deadline := time.Now().Add(30 * time.Second); !job.State.Terminal(); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("gl batch did not finish")
			}
			s.do("GET", "/v1/jobs/"+job.ID, nil, &job)
		}
		for _, name := range []string{"glfast", "greedy-l-fast"} {
			if info, err := core.LookupStrategy(name); err != nil || info.Name != core.StrategyGreedyL {
				t.Errorf("LookupStrategy(%q) = %v, %v; want greedy-l", name, info.Name, err)
			}
			if got, err := s.core(name); err != nil || got != want {
				t.Errorf("core.Place %q = %q, %v; want %q", name, got, err, want)
			}
			if got, err := s.fpplace(name); err != nil || got != want {
				t.Errorf("fpplace %q = %q, %v; want %q", name, got, err, want)
			}
			if res, errText := s.place(name); res == nil || s.labels(res.Filters) != want || res.Algorithm != "gl" {
				t.Errorf("fpd %q = %+v %q; want %q echoing gl", name, res, errText, want)
			}
			code, inline, _ := batch(name)
			if code != http.StatusOK || len(inline.Graphs) != 1 || inline.Graphs[0].Result == nil || !inline.Graphs[0].Result.Cached {
				t.Errorf("%s batch: status %d %+v, want gl's cached result inline", name, code, inline)
			}
		}
	})
}

// TestFpplaceBatchMatchesSolo: batch mode reads every placement flag the
// solo path reads, so each file's batch placement equals its solo run,
// and a bad value is rejected with the same error in both modes.
func TestFpplaceBatchMatchesSolo(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for seed := int64(1); seed <= 2; seed++ {
		g, _ := gen.TwitterLike(0.05, seed)
		p := filepath.Join(dir, fmt.Sprintf("t%d.edges", seed))
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := graph.WriteEdgeList(f, g); err != nil {
			t.Fatal(err)
		}
		f.Close()
		paths = append(paths, p)
	}
	run := func(args ...string) (string, error) {
		var out bytes.Buffer
		err := RunFpplace(append([]string{"-k", "5", "-q"}, args...), nil, &out, &bytes.Buffer{})
		return out.String(), err
	}
	for _, flags := range [][]string{
		{"-algo", "approx", "-quality", "0.3", "-seed", "7"},
		{"-algo", "ml-celf"},
	} {
		batch, err := run(append(flags, paths...)...)
		if err != nil {
			t.Fatalf("%v batch: %v", flags, err)
		}
		var want strings.Builder
		for _, p := range paths {
			solo, err := run(append(flags, p)...)
			if err != nil {
				t.Fatalf("%v solo %s: %v", flags, p, err)
			}
			for _, label := range strings.Fields(solo) {
				fmt.Fprintf(&want, "%s\t%s\n", p, label)
			}
		}
		if batch != want.String() {
			t.Errorf("%v: batch output\n%s\nwant the solo placements\n%s", flags, batch, want.String())
		}
	}
	for _, bad := range [][]string{{"-algo", "approx", "-quality", "0.9"}, {"-algo", "nope"}} {
		_, soloErr := run(append(bad, paths[0])...)
		_, batchErr := run(append(bad, paths...)...)
		if soloErr == nil || batchErr == nil || soloErr.Error() != batchErr.Error() {
			t.Errorf("%v: solo error %v, batch error %v; want the same error", bad, soloErr, batchErr)
		}
	}
}
