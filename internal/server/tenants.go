package server

import "net/http"

// Tenant usage endpoints over the obs.Accountant. Tenants are implicit —
// any request carrying a valid X-FP-Tenant header creates one — so there
// is no tenant CRUD, only usage reads. With accounting disabled
// (Config.DisableAccounting) both endpoints answer 404.

// handleListTenants is GET /v1/tenants: every tenant the accountant has
// seen, with its accumulated usage, sorted by tenant name.
func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	if s.acct == nil {
		s.writeError(w, r, http.StatusNotFound, "tenant accounting disabled")
		return
	}
	s.writeJSON(w, r, http.StatusOK, map[string]any{"tenants": s.acct.Snapshot()})
}

// handleTenantUsage is GET /v1/tenants/{id}/usage: one tenant's
// accumulated resource usage. 404 for a tenant no request has used yet —
// existence is defined by recorded usage, nothing else.
func (s *Server) handleTenantUsage(w http.ResponseWriter, r *http.Request) {
	if s.acct == nil {
		s.writeError(w, r, http.StatusNotFound, "tenant accounting disabled")
		return
	}
	id := r.PathValue("id")
	tc, ok := s.acct.Lookup(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "no usage recorded for tenant %q", id)
		return
	}
	s.writeJSON(w, r, http.StatusOK, tc.Usage())
}
