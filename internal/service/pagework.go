package service

import (
	"fmt"
	"strconv"

	"rhythm/internal/httpx"
	"rhythm/internal/session"
	"rhythm/internal/simt"
)

// PageWorkload is a registered request/response ("one request = one
// page") workload declared as a table of SvcDefs: the registry's one
// workload type. It is the only implementation of the paper's process
// phase — host scalar path, device stage kernels, column-major cohort
// buffers, fixed-geometry rendering — so a workload author writes only
// stage functions plus a backend store; banking, ecom and telemetry are
// all declared this way (see examples/ and DESIGN.md §16).
//
// Classify, Affinity and Static are safe for concurrent calls. The
// execution entry points (ExecuteScratch, a Slot's Bind and its units)
// are driven single-threaded per shard group by the cluster's
// single-writer discipline.
type PageWorkload struct {
	name       string
	cookieName string
	zeroCookie string // the Set-Cookie value of a response without a session
	costs      Costs
	defs       []SvcDef
	byPath     map[string]int

	newBackend func() Backend
	affinity   func(req *httpx.Request, local int, buckets int) int
	static     func(path string) ([]byte, bool)
	errorPage  func(ctx *Ctx)
}

// PageWorkloadConfig declares a page workload.
type PageWorkloadConfig struct {
	// Name is the registry name.
	Name string
	// CookieName is the session cookie ("" = no cookie sessions).
	CookieName string
	// Costs is the instruction cost model (zero fields take defaults).
	Costs Costs
	// Defs are the request types, in local-type order.
	Defs []SvcDef
	// NewBackend creates one shard group's backend store.
	NewBackend func() Backend
	// Affinity overrides the default cookie-bucket affinity. Workloads
	// with SessionCreates types must override it: the creating request
	// has no cookie yet and must pin to the bucket its session will
	// land in (session.BucketFor of the user id).
	Affinity func(req *httpx.Request, local int, buckets int) int
	// Static optionally serves workload static assets.
	Static func(path string) ([]byte, bool)
	// ErrorPage optionally builds the workload's error body (from
	// ctx.Err) into ctx.Page; nil takes the kit's generic page.
	ErrorPage func(ctx *Ctx)
}

// NewPageWorkload validates cfg and builds the workload.
func NewPageWorkload(cfg PageWorkloadConfig) *PageWorkload {
	if cfg.Name == "" {
		panic("service: page workload needs a name")
	}
	if len(cfg.Defs) == 0 {
		panic(fmt.Sprintf("service: workload %s declares no types", cfg.Name))
	}
	if cfg.NewBackend == nil {
		panic(fmt.Sprintf("service: workload %s declares no backend", cfg.Name))
	}
	cfg.Costs.fill()
	w := &PageWorkload{
		name:       cfg.Name,
		cookieName: cfg.CookieName,
		zeroCookie: cfg.CookieName + "=0000000000000000",
		costs:      cfg.Costs,
		defs:       cfg.Defs,
		byPath:     make(map[string]int),
		newBackend: cfg.NewBackend,
		affinity:   cfg.Affinity,
		static:     cfg.Static,
		errorPage:  cfg.ErrorPage,
	}
	for i := range w.defs {
		def := &w.defs[i]
		if def.Stage == nil {
			panic(fmt.Sprintf("service: %s/%s has no stage function", cfg.Name, def.Name))
		}
		if def.Session != SessionNone && w.cookieName == "" {
			panic(fmt.Sprintf("service: %s/%s uses sessions but the workload has no cookie", cfg.Name, def.Name))
		}
		if def.Cacheable && def.Session == SessionNone {
			panic(fmt.Sprintf("service: %s/%s cacheable without session identity", cfg.Name, def.Name))
		}
		if def.SessionStage < 0 || def.SessionStage > def.Backends ||
			def.SessionStage != 0 && def.Session != SessionCreates && def.Session != SessionDeletes {
			panic(fmt.Sprintf("service: %s/%s declares session stage %d", cfg.Name, def.Name, def.SessionStage))
		}
		def.headerLen = w.headerLen(def)
		def.kernels = make([]string, def.Backends+1)
		for k := range def.kernels {
			def.kernels[k] = "rhythm_" + cfg.Name + "_" + def.Name + "_s" + strconv.Itoa(k)
		}
		if def.Path != "" {
			if _, dup := w.byPath[def.Path]; dup {
				panic(fmt.Sprintf("service: %s duplicate path %q", cfg.Name, def.Path))
			}
			w.byPath[def.Path] = i
		}
	}
	return w
}

// Name is the workload's registry name ("banking", "ecom", ...).
func (w *PageWorkload) Name() string { return w.name }

// SessionCookie is the workload's session cookie name ("" when the
// workload has no cookie sessions; such workloads are never
// render-cached).
func (w *PageWorkload) SessionCookie() string { return w.cookieName }

// Types lists the workload's request types with the local fields
// filled (Workload/GID/Display are assigned by the registry).
func (w *PageWorkload) Types() []Spec {
	out := make([]Spec, len(w.defs))
	for i := range w.defs {
		d := &w.defs[i]
		out[i] = Spec{
			Name:           d.Name,
			Path:           d.Path,
			Post:           d.Post,
			MixPercent:     d.MixPercent,
			Backends:       d.Backends,
			BufferBytes:    d.BufferBytes,
			Cacheable:      d.Cacheable,
			VariableStages: d.VariableStages,
		}
	}
	return out
}

// Classify resolves a parsed request to a local type through the path
// table, reporting false for requests this workload does not serve.
func (w *PageWorkload) Classify(req *httpx.Request) (int, bool) {
	local, ok := w.byPath[req.Path]
	return local, ok
}

// Static serves workload static assets (images); ok=false when the
// path is not an asset of this workload.
func (w *PageWorkload) Static(path string) ([]byte, bool) {
	if w.static != nil {
		return w.static(path)
	}
	return nil, false
}

// Affinity reports the session bucket (0..buckets-1) the request's
// state lives in, or -1 for stateless requests any device may serve. By
// default a valid session cookie recovers its array bucket; everything
// else is stateless.
func (w *PageWorkload) Affinity(req *httpx.Request, local int, buckets int) int {
	if w.affinity != nil {
		return w.affinity(req, local, buckets)
	}
	if w.cookieName != "" {
		if id, ok := session.ParseID(req.Cookie(w.cookieName)); ok {
			return id.Bucket(buckets)
		}
	}
	return -1
}

// NewBackend creates one shard group's backend store.
func (w *PageWorkload) NewBackend() Backend { return w.newBackend() }

// Execute is ExecuteScratch on a fresh Scratch: the returned ctx stays
// valid (the harness entry point for instruction counts and traces).
func (w *PageWorkload) Execute(local int, req *httpx.Request, sessions *session.Array, be Backend, padding bool) *Ctx {
	return w.ExecuteScratch(NewScratch(), local, req, sessions, be, padding)
}

// NewSlot creates one execution slot's device cohort state, its stage
// kernels fixed to variant v. It backs none of dev's memory: its
// buffers are reserved address space, and its lanes' backend bytes host
// buffers set aside at its first Bind.
func (w *PageWorkload) NewSlot(dev *simt.Device, cohortSize int, v Variant) *Slot {
	return w.newSlot(&execSlot{dev: dev, size: cohortSize}, v)
}

// newSlot creates w's Slot over the execution slot e.
func (w *PageWorkload) newSlot(e *execSlot, v Variant) *Slot {
	return &Slot{w: w, v: v, byClass: make(map[int]*pageCohort), execSlot: e}
}
