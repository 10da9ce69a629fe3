package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// Live job lifecycle events over Server-Sent Events (GET /v1/events).
// Every job transition — submitted, started, stage entries,
// finished/failed/canceled — is published to an in-process bus;
// subscribers get a bounded buffered channel each, and a subscriber that
// cannot keep up loses events (counted in events_dropped) rather than
// blocking the job engine: observability must never apply back pressure
// to the work it observes.

// JobEvent is one lifecycle transition as streamed to SSE subscribers.
type JobEvent struct {
	// Seq is a bus-wide monotonically increasing sequence number;
	// per-subscriber gaps indicate dropped events.
	Seq  int64     `json:"seq"`
	Time time.Time `json:"time"`
	// Type is the transition: submitted, started, stage, finished,
	// failed or canceled.
	Type      string `json:"type"`
	JobID     string `json:"job_id"`
	GraphID   string `json:"graph_id,omitempty"`
	Algorithm string `json:"algorithm,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	// Traceparent is the W3C trace identity of the request that created
	// the job, so an SSE consumer can join events with distributed traces.
	Traceparent string `json:"traceparent,omitempty"`
	// Stage names the placement stage just entered (type "stage" only).
	Stage string `json:"stage,omitempty"`
	Error string `json:"error,omitempty"`
}

// Event type names.
const (
	EventSubmitted = "submitted"
	EventStarted   = "started"
	EventStage     = "stage"
	EventFinished  = "finished"
	EventFailed    = "failed"
	EventCanceled  = "canceled"
)

// eventSub is one subscriber: a buffered channel the bus sends into
// without ever blocking.
type eventSub struct {
	ch chan JobEvent
}

// eventBus fans job events out to subscribers. publish is cheap (one
// mutex, one non-blocking send per subscriber) and never blocks, so it
// is safe to call from inside the job engine's critical sections.
type eventBus struct {
	mu     sync.Mutex
	subs   map[*eventSub]struct{}
	seq    int64
	closed bool
	// fleet is the ledger row publishes and drops are recorded on.
	fleet *obs.TenantCounters
}

func newEventBus(fleet *obs.TenantCounters) *eventBus {
	return &eventBus{subs: make(map[*eventSub]struct{}), fleet: fleet}
}

// subscribe registers a subscriber with the given channel buffer,
// returning it plus its cancel function. ok is false once the bus is
// closed (server shutting down).
func (b *eventBus) subscribe(buf int) (sub *eventSub, cancel func(), ok bool) {
	if buf < 1 {
		buf = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, nil, false
	}
	sub = &eventSub{ch: make(chan JobEvent, buf)}
	b.subs[sub] = struct{}{}
	return sub, func() { b.unsubscribe(sub) }, true
}

func (b *eventBus) unsubscribe(sub *eventSub) {
	b.mu.Lock()
	if _, live := b.subs[sub]; live {
		delete(b.subs, sub)
		close(sub.ch)
	}
	b.mu.Unlock()
}

// publish stamps the event with the next sequence number and fans it
// out. Slow subscribers drop the event; the bus never blocks.
func (b *eventBus) publish(ev JobEvent) {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.seq++
	ev.Seq = b.seq
	if ev.Time.IsZero() {
		ev.Time = time.Now().UTC()
	}
	dropped := 0
	for sub := range b.subs {
		select {
		case sub.ch <- ev:
		default:
			dropped++
		}
	}
	b.mu.Unlock()
	b.fleet.Add(obs.EventsPublished, 1)
	b.fleet.Add(obs.EventsDropped, int64(dropped))
}

// subscribers reports the current subscriber count (a /metrics gauge).
func (b *eventBus) subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// close shuts the bus: every subscriber's channel closes (ending its SSE
// stream) and later publishes are dropped.
func (b *eventBus) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		for sub := range b.subs {
			delete(b.subs, sub)
			close(sub.ch)
		}
	}
	b.mu.Unlock()
}

// sseHeartbeat is the keep-alive comment cadence for idle streams.
const sseHeartbeat = 15 * time.Second

// handleEvents is GET /v1/events: a text/event-stream of job lifecycle
// events. Optional query filters: ?tenant= keeps one tenant's jobs,
// ?job= one job id, ?types=started,finished a comma list of event types.
// The stream ends when the client disconnects or the server closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, r, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	q := r.URL.Query()
	filterTenant := q.Get("tenant")
	filterJob := q.Get("job")
	filterTypes := map[string]bool{}
	if t := q.Get("types"); t != "" {
		for _, part := range splitComma(t) {
			filterTypes[part] = true
		}
	}

	sub, cancel, ok := s.events.subscribe(256)
	if !ok {
		s.writeError(w, r, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	defer cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass events through
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": stream opened\n\n")
	fl.Flush()

	tick := time.NewTicker(sseHeartbeat)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		case ev, ok := <-sub.ch:
			if !ok {
				return // bus closed: server shutting down
			}
			if filterTenant != "" && ev.Tenant != filterTenant {
				continue
			}
			if filterJob != "" && ev.JobID != filterJob {
				continue
			}
			if len(filterTypes) > 0 && !filterTypes[ev.Type] {
				continue
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			fl.Flush()
		}
	}
}

// splitComma splits a comma list, trimming empties.
func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
