package banking

import (
	"strconv"

	"rhythm/internal/backend"
	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
)

// This file declares the Banking workload on the service registry's
// page kit (DESIGN.md §16), exactly as ecom and telemetry are: a type
// table plus stage functions (services.go). Banking registers first in
// the default registry, so its workload-qualified type ids equal its
// historical ReqType values.

// cacheableTypes is the render-cache whitelist: read-only page types
// whose bytes depend only on (type, session, user state version,
// request arguments) — the registry Spec's Cacheable bit (DESIGN.md
// §14).
var cacheableTypes = map[ReqType]bool{
	AccountSummary:      true,
	AddPayee:            true,
	BillPay:             true,
	BillPayStatusOutput: true,
	ChangeProfile:       true,
	CheckDetailHTML:     true,
	OrderCheck:          true,
	Profile:             true,
	Transfer:            true,
}

// NewWorkload builds the registrable Banking workload; its local type
// ids are the ReqType values.
func NewWorkload() *service.PageWorkload {
	defs := make([]service.SvcDef, NumTypes)
	for i, s := range Specs {
		mode, sessionStage := service.SessionRequired, 0
		switch s.Type {
		case Login:
			// Stage 1 creates the session once AUTH has answered.
			mode, sessionStage = service.SessionCreates, 1
		case Logout:
			mode = service.SessionDeletes
		}
		defs[i] = service.SvcDef{
			Name:           s.Name,
			Path:           s.Path,
			Post:           s.Post,
			MixPercent:     s.MixPercent,
			Backends:       s.Backends,
			BufferBytes:    s.BufferBytes(),
			Session:        mode,
			SessionStage:   sessionStage,
			Cacheable:      cacheableTypes[s.Type],
			VariableStages: s.VariableStages,
			Stage:          stages[s.Type],
		}
	}
	// Costs stay zero: the kit's default cost model is the one calibrated
	// against banking's Table 2 instruction counts (DESIGN.md §6).
	return service.NewPageWorkload(service.PageWorkloadConfig{
		Name:       "banking",
		CookieName: "MY_ID",
		Defs:       defs,
		NewBackend: func() service.Backend { return backend.New() },
		Affinity:   affinity,
		Static:     ImageResponse,
		ErrorPage:  errorPage,
	})
}

// affinity pins logins to the bucket that will own the created session
// (hashing the posted userid the way session.Create will);
// cookie-bearing requests recover their bucket from the session id;
// everything else is stateless — its kernel fails before touching
// state, so any device renders the same error page.
func affinity(req *httpx.Request, local int, buckets int) int {
	if ReqType(local) == Login {
		uid, err := strconv.ParseUint(req.Param("userid"), 10, 64)
		if err != nil {
			return -1
		}
		return session.BucketFor(uid, buckets)
	}
	if id, ok := session.ParseID(req.Cookie("MY_ID")); ok {
		return id.Bucket(buckets)
	}
	return -1
}
