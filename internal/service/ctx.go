package service

import (
	"fmt"

	"rhythm/internal/httpx"
	"rhythm/internal/session"
)

// SessionMode declares a request type's session semantics — what the
// kernel prologue does with the workload's session cookie, and what the
// stage-kernel footprint must declare about the shard group's session
// array.
type SessionMode int

const (
	// SessionNone: the type never touches the session array.
	SessionNone SessionMode = iota
	// SessionOptional: a valid cookie resolves the session (and makes
	// the request cacheable/affine); a missing one is not an error.
	SessionOptional
	// SessionRequired: a missing or expired session fails the request
	// before any backend work (the divergent error path).
	SessionRequired
	// SessionCreates: the type creates a session during its stages
	// (login-shaped); any existing cookie is ignored.
	SessionCreates
	// SessionDeletes: SessionRequired, and the type deletes the resolved
	// session during its stages (logout-shaped).
	SessionDeletes
)

// StageFunc is one request type's process logic, shared verbatim by the
// host path and the device kernels: stage i (0 ≤ i < Backends) returns
// the backend request to issue; the final stage returns nil after
// building ctx.Page. bresp is the previous round trip's backend
// response (nil at stage 0).
type StageFunc func(ctx *Ctx, stage int, bresp []byte) []byte

// SvcDef declares one request type of a page-shaped workload.
type SvcDef struct {
	Name string
	Path string
	Post bool
	// MixPercent is the type's share of the workload mix.
	MixPercent float64
	// Backends is the backend round-trip count.
	Backends int
	// BufferBytes is the fixed response buffer (a power of two).
	BufferBytes int
	// ContentType of the response ("" = text/html).
	ContentType string
	// Session is the type's session semantics.
	Session SessionMode
	// SessionStage is the stage whose function creates or deletes the
	// session (SessionCreates, SessionDeletes): its kernel alone runs in
	// lane order, and CreateSession or DeleteSession called from any
	// other stage panics.
	SessionStage int
	// Cacheable marks the type render-cache eligible (requires a
	// session-resolving mode so cache keys carry a user identity).
	Cacheable bool
	// VariableStages marks types that may finish early (ctx.Done).
	VariableStages bool
	// Stage is the process logic.
	Stage StageFunc

	headerLen int      // computed at registration
	kernels   []string // stage kernel names, computed at registration
}

// Ctx carries one request through its process stages, shared by the
// host path and the SIMT kernels: both run the same stage functions, so
// the bytes produced — and the structural instruction counts charged —
// are identical by construction.
type Ctx struct {
	Req      *httpx.Request
	Sessions *session.Array
	// Local is the type's index within its workload; Def its declaration.
	Local int
	Def   *SvcDef
	Page  *PageBuilder

	// SID/UserID are resolved from the workload's session cookie (or
	// created by a SessionCreates stage). HasSession reports a live
	// resolved session (SessionOptional types run without one).
	SID        session.ID
	UserID     uint64
	HasSession bool
	// NewCookie, when non-empty, is the Set-Cookie value the response
	// carries (only meaningful for workloads with a session cookie).
	NewCookie string
	// Err marks the request failed; the response is a full-size error
	// page on the cohort's divergent path (§4.4).
	Err string
	// Done marks early completion of a variable-stage type: the page is
	// built and the remaining backend stages are skipped, so the
	// request's thread drops out of the cohort's later kernels.
	Done bool
	// Data carries service-private state between stages.
	Data any

	w     *PageWorkload
	instr int64
	stage int // the stage function running
}

// Charge adds n instructions of non-page work.
func (c *Ctx) Charge(n int64) { c.instr += n }

// Instr reports total instructions charged.
func (c *Ctx) Instr() int64 { return c.instr + c.Page.Instr() }

// Fail marks the request failed.
func (c *Ctx) Fail(reason string) { c.Err = reason }

// CreateSession creates a session for uid and arms the response cookie.
// For the SessionStage of a SessionCreates type only; failure (a bucket
// whose every node was touched this instant) fails the request. A
// create that reclaims an idle node pays for the node reads it made.
func (c *Ctx) CreateSession(uid uint64) bool {
	c.inSessionStage(SessionCreates)
	sid, reads, ok := c.Sessions.Create(uid)
	c.Charge(int64(reads) * sessionNodeOps)
	if !ok {
		c.Fail("server busy: session table full")
		return false
	}
	c.SID = sid
	c.UserID = uid
	c.HasSession = true
	c.NewCookie = c.w.cookie(c.Page, sid)
	return true
}

// DeleteSession ends the resolved session; the response carries the
// all-zero cookie. For the SessionStage of a SessionDeletes type only.
func (c *Ctx) DeleteSession() {
	c.inSessionStage(SessionDeletes)
	c.Sessions.Delete(c.SID)
	c.HasSession = false
	c.NewCookie = ""
}

// inSessionStage panics unless the running stage is the one the type
// declares for mode: only that stage's kernel is ordered and declares a
// write of the session array, so a create or delete anywhere else would
// race with the cohort's other lanes and with other launches.
func (c *Ctx) inSessionStage(mode SessionMode) {
	if c.Def.Session != mode || c.stage != c.Def.SessionStage {
		panic(fmt.Sprintf("service: %s changes the session table at stage %d, outside its declared SessionStage %d", c.Def.Name, c.stage, c.Def.SessionStage))
	}
}

// runStage runs the type's stage function for stage.
func (c *Ctx) runStage(stage int, bresp []byte) []byte {
	c.stage = stage
	return c.Def.Stage(c, stage, bresp)
}

// BlockBase gives each request type a disjoint basic-block id space for
// the Fig 2 trace study: ids base..base+998 are the stage functions',
// base+999 the error path.
func BlockBase(local int) uint32 { return uint32(local+1) * 1000 }

// initCtx prepares a context (fresh or recycled, Page attached and
// reset): fixed-cost charge and session-cookie resolution per the
// type's SessionMode. It leaves Err set on failure so an error page can
// be rendered.
func (w *PageWorkload) initCtx(ctx *Ctx, local int, req *httpx.Request, sessions *session.Array, padding bool) {
	page := ctx.Page
	def := &w.defs[local]
	*ctx = Ctx{Req: req, Sessions: sessions, Local: local, Def: def, Page: page, w: w}
	page.costs = w.costs
	page.padding = padding
	ctx.Charge(w.costs.Fixed)
	page.Block(BlockBase(local))
	switch def.Session {
	case SessionNone, SessionCreates:
		return
	}
	required := def.Session != SessionOptional
	sid, ok := session.ParseID(req.Cookie(w.cookieName))
	if !ok {
		if required {
			ctx.Fail("missing or malformed session cookie")
		}
		return
	}
	uid, ok := sessions.Lookup(sid)
	if !ok {
		if required {
			ctx.Fail("session expired")
		}
		return
	}
	ctx.SID = sid
	ctx.UserID = uid
	ctx.HasSession = true
	ctx.NewCookie = w.cookie(page, sid)
}

// cookie formats the Set-Cookie value of sid into the page's arena.
func (w *PageWorkload) cookie(page *PageBuilder, sid session.ID) string {
	return page.Sprintf("%s=%016x", w.cookieName, uint64(sid))
}

// Scratch is a reusable execution context: one per connection (or per
// worker) runs every request through the same Ctx and PageBuilder,
// resetting rather than reallocating between requests.
type Scratch struct {
	ctx  Ctx
	page PageBuilder
	// bresp is the host path's backend response buffer, refilled by
	// every round trip.
	bresp []byte
}

// NewScratch returns an empty reusable execution context.
func NewScratch() *Scratch {
	sc := &Scratch{}
	sc.ctx.Page = &sc.page
	return sc
}

// Render assembles the page of the Scratch's last execution into the
// front of out, which must hold at least the type's buffer size.
func (sc *Scratch) Render(out []byte) []byte {
	return sc.ctx.Render(out[:sc.ctx.Def.BufferBytes])
}

// ExecuteScratch runs one request through every stage against a local
// backend — the scalar host path used by CPU baselines, the host route,
// and the validator — reusing sc, so the steady state allocates neither
// ctx nor builder. It runs the same stage functions the kernels run: a
// padded execution's sc.Render is the fixed-geometry response, which
// must be byte-identical to the device path's output, and ctx.Err is
// set when the request took the error path. The returned ctx is valid
// until the next execution on sc.
func (w *PageWorkload) ExecuteScratch(sc *Scratch, local int, req *httpx.Request, sessions *session.Array, be Backend, padding bool) *Ctx {
	ctx := &sc.ctx
	sc.page.Reset()
	w.initCtx(ctx, local, req, sessions, padding)
	def := ctx.Def
	var bresp []byte
	for i := 0; i <= def.Backends; i++ {
		if ctx.Err != "" || ctx.Done {
			break
		}
		breq := ctx.runStage(i, bresp)
		if i < def.Backends {
			if ctx.Err != "" || ctx.Done {
				break
			}
			if breq == nil {
				panic(fmt.Sprintf("service: %s stage %d produced no backend request", def.Name, i))
			}
			if !requestFits(ctx, breq) {
				break
			}
			ctx.Charge(w.costs.Backend)
			sc.bresp = be.Handle(sc.bresp[:0], breq)
			bresp = sc.bresp
			if len(bresp) > BackendResponseSlot {
				bresp = respOverflow
			}
		}
	}
	if ctx.Err != "" {
		buildErrorPage(ctx)
	}
	return ctx
}

// A backend request or response that outgrows its slot (§5.1: 1 KB and
// 4 KB) is the request's error, the same on the host path and in the
// stage kernels: requestFits fails the request, and the response is
// replaced by respOverflow for the stage to reject.
var respOverflow = []byte("ERR response overflow")

// requestFits reports whether breq fits the backend request slot, and
// fails the request when it does not.
func requestFits(ctx *Ctx, breq []byte) bool {
	if len(breq) > BackendRequestSlot {
		ctx.Fail("backend request too large")
		return false
	}
	return true
}

// buildErrorPage renders the divergent error path: a short message in a
// full-size buffer so cohort geometry is undisturbed (§4.4).
func buildErrorPage(ctx *Ctx) {
	ctx.Page.discard()
	ctx.Page.Block(BlockBase(ctx.Local) + 999)
	if ctx.w.errorPage != nil {
		ctx.w.errorPage(ctx)
		return
	}
	ctx.Page.Static("<html><head><title>")
	ctx.Page.Static(ctx.w.name)
	ctx.Page.Static(" - Error</title></head><body>\n<h1>Request failed</h1>\n<p class=\"error\">")
	ctx.Page.Dynamic(ctx.Err)
	ctx.Page.Static("</p>\n</body></html>\n")
}
