package server

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"net/http"

	"repro/internal/obs"
)

// Request-scope identity. Every request entering ServeHTTP is stamped
// with three values before routing:
//
//   - a request id (X-Request-ID: accepted from the client when well
//     formed, generated otherwise), echoed in the response headers and
//     in every error body so a client log line and a server log line
//     can be joined on one token;
//   - a tenant (X-FP-Tenant, defaulting to obs.DefaultTenant), the unit
//     of resource accounting;
//   - a W3C trace context (traceparent: continued as a child span when
//     the client sent one, minted otherwise), carried through job
//     records, timelines and logs.
//
// All three travel in the request context and are copied into JobMeta
// at submission, so asynchronous work keeps the identity of the request
// that created it.

// reqInfo is the per-request identity bundle stored in the context.
type reqInfo struct {
	id     string
	tenant string
	trace  obs.TraceContext
}

// reqInfoKey is the context key reqInfo travels under.
type reqInfoKey struct{}

// reqFrom extracts the request identity; the zero value (direct handler
// tests that bypass ServeHTTP) means "no id, default tenant".
func reqFrom(ctx context.Context) reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(reqInfo)
	return ri
}

// genRequestID mints an 8-byte hex request id. Randomness failure falls
// back to a constant rather than failing a serving path.
func genRequestID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return "r-00000000"
	}
	return "r-" + hex.EncodeToString(b[:])
}

// validRequestID accepts client-supplied request ids: 1–64 characters
// from the same conservative charset as tenant names, safe for headers,
// logs and JSON without escaping. Anything else is silently replaced
// with a generated id (a malformed tracing header should never fail the
// request itself).
func validRequestID(s string) bool { return obs.ValidTenant(s) }

// stampRequest resolves the request identity from headers, stores it in
// the context and echoes it into the response headers. It returns the
// derived info and the updated request. A present-but-invalid tenant
// header is a client error (ok=false, response already written): silent
// fallback to the default tenant would misattribute usage.
func (s *Server) stampRequest(w http.ResponseWriter, r *http.Request) (reqInfo, *http.Request, bool) {
	ri := reqInfo{tenant: obs.DefaultTenant}
	if t := r.Header.Get("X-FP-Tenant"); t != "" {
		if !obs.ValidTenant(t) {
			// Rejected before a tenant is known: the fleet row counts it.
			s.acct.Fleet().Add(obs.Requests, 1)
			ri.id = genRequestID()
			w.Header().Set("X-Request-ID", ri.id)
			s.writeError(w, r, http.StatusBadRequest,
				"invalid X-FP-Tenant %q: want 1-64 chars of [A-Za-z0-9._-]", t)
			return ri, r, false
		}
		ri.tenant = t
	}
	if id := r.Header.Get("X-Request-ID"); id != "" && validRequestID(id) {
		ri.id = id
	} else {
		ri.id = genRequestID()
	}
	if tc, err := obs.ParseTraceparent(r.Header.Get("Traceparent")); err == nil {
		ri.trace = tc.Child() // continue the client's trace with our own span
	} else {
		ri.trace = obs.NewTraceContext()
	}
	w.Header().Set("X-Request-ID", ri.id)
	w.Header().Set("Traceparent", ri.trace.String())
	r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri))
	return ri, r, true
}

// tenantCounters returns the ledger row of the request's tenant.
func (s *Server) tenantCounters(r *http.Request) *obs.TenantCounters {
	return s.acct.Tenant(reqFrom(r.Context()).tenant)
}

// jobMetaOf builds the JobMeta a handler passes to the job engine.
func jobMetaOf(r *http.Request) JobMeta {
	ri := reqFrom(r.Context())
	return JobMeta{Tenant: ri.tenant, RequestID: ri.id, Traceparent: ri.trace.String()}
}
