// Service walkthrough: start the fpd daemon in-process, upload a
// Twitter-like dissemination graph over HTTP, submit an asynchronous
// Greedy_All placement job, and poll it to completion — the same exchange
// a network operator's tooling would have with a deployed fpd.
//
//	go run ./examples/service
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/server"
)

func main() {
	// An fpd instance on an ephemeral port, exactly as cmd/fpd wires it.
	srv := server.New(server.Config{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("fpd serving on", base)

	// Upload a scaled-down Twitter stand-in by generator name.
	var info server.GraphInfo
	post(base+"/v1/graphs", server.GraphSpec{
		Name: "twitter-demo", Generator: "twitter", Scale: 0.05, Seed: 7,
	}, &info)
	fmt.Printf("registered %s: %d nodes, %d edges, sources %v\n",
		info.ID, info.Nodes, info.Edges, info.Sources)

	// Expensive placement ⇒ the server answers 202 with a job to poll.
	var job server.JobInfo
	post(base+"/v1/graphs/"+info.ID+"/place", server.PlaceSpec{
		Algorithm: "gall", K: 10,
	}, &job)
	fmt.Printf("submitted job %s (%s)\n", job.ID, job.State)

	for !job.State.Terminal() {
		time.Sleep(20 * time.Millisecond)
		get(base+"/v1/jobs/"+job.ID, &job)
	}
	if job.State != server.JobDone {
		log.Fatalf("job ended %s: %s", job.State, job.Error)
	}
	res := job.Result
	fmt.Printf("job done in %d ms: filters %v\n", job.ElapsedMS, res.Filters)
	fmt.Printf("Φ(∅,V) = %.0f → Φ(A,V) = %.0f; Filter Ratio %.4f\n",
		res.PhiEmpty, res.PhiA, res.FR)

	// The identical query again — answered inline from the result cache.
	var again server.PlaceResult
	post(base+"/v1/graphs/"+info.ID+"/place", server.PlaceSpec{
		Algorithm: "gall", K: 10,
	}, &again)
	var ms server.MetricsSnapshot
	get(base+"/metrics", &ms)
	fmt.Printf("repeat query: cached=%v (cache hits %d, misses %d)\n",
		again.Cached, ms.CacheHits, ms.CacheMisses)
}

func post(url string, body, out any) {
	b, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, out)
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, out)
}

func decode(resp *http.Response, out any) {
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("%s: %s", resp.Status, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
