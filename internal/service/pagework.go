package service

import (
	"fmt"
	"strconv"

	"rhythm/internal/httpx"
	"rhythm/internal/session"
	"rhythm/internal/simt"
)

// PageWorkload implements Workload for request/response ("one request =
// one page") workloads declared as a table of SvcDefs. It is the only
// implementation of the paper's process phase — host scalar path,
// device stage kernels, column-major cohort buffers, fixed-geometry
// rendering — so a workload author writes only stage functions plus a
// backend store; banking, ecom and telemetry are all declared this way
// (see examples/ and DESIGN.md §16).
type PageWorkload struct {
	name       string
	cookieName string
	costs      Costs
	defs       []SvcDef
	byPath     map[string]int

	newBackend func() Backend
	classify   func(req *httpx.Request) (int, bool)
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
	// Classify overrides the default path-table classifier.
	Classify func(req *httpx.Request) (local int, ok bool)
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
		costs:      cfg.Costs,
		defs:       cfg.Defs,
		byPath:     make(map[string]int),
		newBackend: cfg.NewBackend,
		classify:   cfg.Classify,
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

// Name implements Workload.
func (w *PageWorkload) Name() string { return w.name }

// SessionCookie implements Workload.
func (w *PageWorkload) SessionCookie() string { return w.cookieName }

// Types implements Workload.
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

// Classify implements Workload (path table unless overridden).
func (w *PageWorkload) Classify(req *httpx.Request) (int, bool) {
	if w.classify != nil {
		return w.classify(req)
	}
	local, ok := w.byPath[req.Path]
	return local, ok
}

// Static implements Workload.
func (w *PageWorkload) Static(path string) ([]byte, bool) {
	if w.static != nil {
		return w.static(path)
	}
	return nil, false
}

// Affinity implements Workload: by default a valid session cookie
// recovers its array bucket; everything else is stateless.
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

// NewBackend implements Workload.
func (w *PageWorkload) NewBackend() Backend { return w.newBackend() }

// ExecuteHost implements Workload: the scalar reference path, running
// the same stage functions the kernels run.
func (w *PageWorkload) ExecuteHost(sc *Scratch, local int, req *httpx.Request, sessions *session.Array, be Backend) bool {
	return w.ExecuteScratch(sc, local, req, sessions, be, true).Err != ""
}

// Execute is ExecuteScratch on a fresh Scratch: the returned ctx stays
// valid (the harness entry point for instruction counts and traces).
func (w *PageWorkload) Execute(local int, req *httpx.Request, sessions *session.Array, be Backend, padding bool) *Ctx {
	return w.ExecuteScratch(NewScratch(), local, req, sessions, be, padding)
}

// classes lists the distinct response-buffer classes, ascending-free
// (declaration order).
func (w *PageWorkload) classes() []int {
	seen := map[int]bool{}
	var out []int
	for i := range w.defs {
		c := w.defs[i].BufferBytes
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// DeviceBytes implements Workload: the row-major backend request and
// response slots of one cohort per distinct buffer class. The column
// images and the response buffers are reserved address space
// (kernels.go) and take no backing; the response bytes live in rows the
// bound unit owns.
func (w *PageWorkload) DeviceBytes(cohortSize int) int64 {
	return int64(len(w.classes())) * int64(cohortSize) * (BackendRequestSlot + BackendResponseSlot)
}

// NewSlot implements Workload.
func (w *PageWorkload) NewSlot(dev *simt.Device, cohortSize int, v Variant) Slot {
	return &pageSlot{w: w, dev: dev, v: v, size: cohortSize, byClass: make(map[int]*pageCohort)}
}
