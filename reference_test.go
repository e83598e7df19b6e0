package rhythm

import (
	"rhythm/internal/backend"
	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
)

// reference answers raw requests on the workloads' scalar host path
// (Registry.ExecuteHost) over twin state of its own: one session array
// of the server's geometry and one backend store per workload. It is
// what the tests hold the server's responses to, on either route, so no
// test compares a route with itself. Every bucket maps to one shard
// group, so the one array issues the session ids a server's per-group
// arrays do.
type reference struct {
	reg      *service.Registry
	sessions *session.Array
	bes      []service.Backend
}

// newReference builds a reference over the default registry with the
// session geometry of a server of maxSessions sessions.
func newReference(maxSessions int) *reference {
	reg := DefaultRegistry()
	return &reference{
		reg:      reg,
		sessions: session.NewArray(256, maxSessions/256*4+4),
		bes:      reg.NewBackends(),
	}
}

// Seed reports userID's deterministic banking password, as the server's
// Seed does.
func (r *reference) Seed(userID uint64) (uint64, string) {
	return userID, backend.PasswordFor(userID)
}

// answer is the response the server owes raw: an error page for a
// request that does not parse, a static asset or a 404 for a path no
// workload classifies, else the executed page.
func (r *reference) answer(raw []byte) []byte {
	req, err := httpx.Parse(raw)
	if err != nil {
		return errorResponse(400, "Bad Request")
	}
	t, ok := r.reg.Classify(&req)
	if !ok {
		if resp, ok := r.reg.Static(req.Path); ok {
			return resp
		}
		return errorResponse(404, "Not Found")
	}
	page, _ := r.reg.ExecuteHost(t, &req, r.sessions, r.bes)
	return page
}
