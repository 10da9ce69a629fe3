// Package obs is fpd's observability layer: allocation-light latency
// histograms, a per-job stage/span recorder, a metric registry with
// Prometheus text-format exposition, and a validator for that format.
//
// The package is deliberately zero-dependency (stdlib only) and designed
// so that instrumentation disabled is instrumentation free: a nil *Trace
// records nothing and never reads the clock, a Histogram observe is a
// handful of atomic adds, and the sched queue-wait hook wraps tasks only
// while a sampler is installed. Nothing in this package may be called
// from inside the flow kernels (forwardRange/suffixRange and friends);
// callers record around whole passes, placements and requests, keeping
// the bit-identical hot paths untouched.
//
// The pieces:
//
//   - Histogram / HistogramVec: fixed-bucket latency histograms with
//     lock-free atomic buckets and p50/p90/p99 estimation, matching the
//     Prometheus cumulative-bucket exposition.
//   - Trace / Span: a lightweight per-job stage recorder. Stages with the
//     same name merge (duration accumulates, count increments), so a
//     thousand greedy rounds collapse into one timeline entry instead of
//     a thousand; GET /v1/jobs/{id} serves the snapshot as the job
//     timeline.
//   - Registry: named counters, gauges and histograms with a
//     WritePrometheus exposition method.
//   - The counter ledger (counters.go) and its store, Accountant: every
//     counter defined once, recorded on a fleet row or a tenant's row.
//   - LintPrometheus: a strict-enough validator for the text exposition
//     format, used by tests and the CI metrics-lint step.
package obs
