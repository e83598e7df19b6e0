// Package service is Rhythm's pluggable workload registry: the page kit
// a workload is declared with to be served by the cohort pipeline
// (PageWorkloadConfig, one SvcDef per request type), and the registry
// that fuses the registered workloads into one dense workload-qualified
// type space the serving stack (classifier, cluster dispatch, adaptive
// controller, render cache, metrics) is threaded through. The stack
// itself knows nothing about any concrete workload — banking,
// e-commerce, and telemetry all arrive here the same way (DESIGN.md
// §16).
//
// A workload declares, per request type: a classifier entry, the fixed
// response-buffer class (which sizes device cohort buffers and the
// render cache's value geometry), the backend round-trip count (which
// sizes the stage-kernel chain), mix weights (which drive generators and
// the adaptive controller's fitting), render-cache eligibility, and
// session semantics (which drive shard-group affinity and kernel
// footprint declarations). The kit gives every *PageWorkload three
// execution surfaces: a scalar host path (the byte-identity reference),
// a backend-store factory (one instance per shard group), and a device
// Slot whose bound PageUnits launch the type's stage kernels.
package service

import (
	"fmt"
	"sync"

	"rhythm/internal/httpx"
	"rhythm/internal/session"
	"rhythm/internal/simt"
)

// TypeID is a workload-qualified request type: a dense index into the
// registry's fused type space. The first registered workload's local
// type 0 is TypeID 0, so a registry whose first workload is banking
// keeps banking's historical type numbering.
type TypeID int

// Backend-request slot geometry shared by all registered workloads: the
// paper's 1 KB request / 4 KB response Besim slots (§5.1). Fixing the
// slots registry-wide keeps device cohort geometry uniform across
// workloads sharing an execution slot.
const (
	BackendRequestSlot  = 1024
	BackendResponseSlot = 4096
)

// Spec describes one registered request type. Workloads fill the local
// fields; the registry assigns GID and Display at registration.
type Spec struct {
	// Workload is the owning workload's name.
	Workload string
	// GID is the registry-assigned workload-qualified type id.
	GID TypeID
	// Local is the type's index within its workload.
	Local int
	// Name is the workload-local type name (e.g. "login", "browse").
	Name string
	// Display is the registry-wide label used for stats keys, metric
	// label values, flight records, and trace types: "workload/name".
	Display string
	// Path is the request path the workload's path table classifies to
	// this type ("" for a type no path reaches).
	Path string
	// Post marks form-submission (POST) types.
	Post bool
	// MixPercent is the type's share within its workload's mix.
	MixPercent float64
	// Backends is the number of backend round trips (the stage-kernel
	// chain has Backends+1 process stages).
	Backends int
	// BufferBytes is the fixed response-buffer class.
	BufferBytes int
	// Cacheable marks types the whole-page render cache may serve.
	Cacheable bool
	// VariableStages marks types that may complete before their maximum
	// backend count (divergent cohort retirement).
	VariableStages bool
}

// Backend is one shard group's authoritative store for a workload:
// process stages talk to it through fixed-size textual request slots
// (the Besim protocol shape), and every committed mutation reports the
// affected entity id to the write hook (the render cache's
// invalidation feed). *backend.DB satisfies it. Reads may run
// concurrently with reads: Handle calls for which Reads is true may
// overlap each other, never a call for which it is false.
type Backend interface {
	// Handle executes one wire-format backend request — exactly its
	// bytes, at most BackendRequestSlot of them, no padding — and
	// appends the wire-format response to dst, the caller's buffer: a
	// device lane's backend response buffer, or on the host path one its
	// Scratch owns, so the steady state allocates nothing. Past the
	// response it leaves dst's spare capacity zero or as it was. One
	// longer than BackendResponseSlot reaches the stage as "ERR response
	// overflow".
	// Handle must not keep req, dst, a slice of either or a string view
	// of them: what it stores of the request's fields it copies.
	Handle(dst, req []byte) []byte
	// Reads reports whether Handle(req) is a pure read: it changes no
	// stored state and fires no write hook. It may only err towards
	// false. It looks at req alone, so it may be called from any
	// goroutine at any time.
	Reads(req []byte) bool
	// SetWriteHook registers fn to run after every committed mutation
	// with the id whose cached pages it invalidates.
	SetWriteHook(fn func(uid uint64))
}

// Registry fuses registered workloads into one dense TypeID space.
// Registration order is significant: it fixes GID assignment (and
// therefore stats/metrics ordering), and the first workload occupies
// the lowest ids.
type Registry struct {
	ws    []*PageWorkload
	specs []Spec
	base  []int // workload index -> first GID
	widx  []int // GID -> workload index

	byName map[string]int // workload name -> index
}

// NewRegistry builds a registry from workloads in registration order.
// Every type's Display label is "workload/name". Duplicate workload
// names or display labels panic: the label universe is the registry's
// core guarantee.
func NewRegistry(ws ...*PageWorkload) *Registry {
	if len(ws) == 0 {
		panic("service: empty registry")
	}
	r := &Registry{ws: ws, byName: make(map[string]int)}
	displays := make(map[string]bool)
	for i, w := range ws {
		name := w.Name()
		if _, dup := r.byName[name]; dup {
			panic(fmt.Sprintf("service: duplicate workload %q", name))
		}
		r.byName[name] = i
		r.base = append(r.base, len(r.specs))
		for local, sp := range w.Types() {
			if sp.Name == "" {
				panic(fmt.Sprintf("service: %s type %d has no name", name, local))
			}
			if sp.BufferBytes <= 0 || sp.BufferBytes%4 != 0 {
				panic(fmt.Sprintf("service: %s/%s buffer %d not a positive word multiple", name, sp.Name, sp.BufferBytes))
			}
			sp.Workload = name
			sp.Local = local
			sp.GID = TypeID(len(r.specs))
			sp.Display = name + "/" + sp.Name
			if displays[sp.Display] {
				panic(fmt.Sprintf("service: duplicate display label %q", sp.Display))
			}
			displays[sp.Display] = true
			r.specs = append(r.specs, sp)
			r.widx = append(r.widx, i)
		}
	}
	return r
}

// NumTypes reports the fused type-space size.
func (r *Registry) NumTypes() int { return len(r.specs) }

// Spec returns the spec of t.
func (r *Registry) Spec(t TypeID) Spec { return r.specs[t] }

// Specs returns the full fused spec table (do not mutate).
func (r *Registry) Specs() []Spec { return r.specs }

// Workloads returns the registered workloads in registration order.
func (r *Registry) Workloads() []*PageWorkload { return r.ws }

// WorkloadIndex reports which registered workload owns t.
func (r *Registry) WorkloadIndex(t TypeID) int { return r.widx[t] }

// WorkloadOf returns the workload owning t.
func (r *Registry) WorkloadOf(t TypeID) *PageWorkload { return r.ws[r.widx[t]] }

// GID maps (workload index, local type) to the fused id.
func (r *Registry) GID(widx, local int) TypeID { return TypeID(r.base[widx] + local) }

// DisplayNames returns the label universe indexed by TypeID — the
// metrics `type` label values and /v1/stats per-type keys.
func (r *Registry) DisplayNames() []string {
	out := make([]string, len(r.specs))
	for i := range r.specs {
		out[i] = r.specs[i].Display
	}
	return out
}

// Classify resolves a request to its workload-qualified type,
// consulting workloads in registration order.
func (r *Registry) Classify(req *httpx.Request) (TypeID, bool) {
	for i, w := range r.ws {
		if local, ok := w.Classify(req); ok {
			return r.GID(i, local), true
		}
	}
	return 0, false
}

// Static serves the first registered workload that claims the asset.
func (r *Registry) Static(path string) ([]byte, bool) {
	for _, w := range r.ws {
		if resp, ok := w.Static(path); ok {
			return resp, true
		}
	}
	return nil, false
}

// Affinity reports the session bucket a classified request pins to
// (-1 = stateless).
func (r *Registry) Affinity(req *httpx.Request, t TypeID, buckets int) int {
	return r.WorkloadOf(t).Affinity(req, r.specs[t].Local, buckets)
}

// MaxBufferBytes reports the largest response buffer any registered
// type uses.
func (r *Registry) MaxBufferBytes() int {
	m := 0
	for i := range r.specs {
		if b := r.specs[i].BufferBytes; b > m {
			m = b
		}
	}
	return m
}

// NewBackends creates one backend store per workload (one shard
// group's set), indexed by workload index.
func (r *Registry) NewBackends() []Backend {
	out := make([]Backend, len(r.ws))
	for i, w := range r.ws {
		out[i] = w.NewBackend()
	}
	return out
}

// NewSlots creates one execution slot's cohort state across all
// workloads, indexed by workload index. The Slots share one set of lane
// mirrors and backend buffers — the slot binds one cohort at a time —
// set aside at the set's first Bind, and a unit of any of them is valid
// until the next Bind on any of them. Like NewSlot, the set backs none
// of dev's memory.
func (r *Registry) NewSlots(dev *simt.Device, cohortSize int, v Variant) []*Slot {
	e := &execSlot{dev: dev, size: cohortSize}
	out := make([]*Slot, len(r.ws))
	for i, w := range r.ws {
		out[i] = w.newSlot(e, v)
	}
	return out
}

// ExecuteHost runs one classified request on its workload's scalar host
// path against the group's backend set and returns the rendered
// response (a fresh allocation the caller owns) plus whether the
// request took the error path.
func (r *Registry) ExecuteHost(t TypeID, req *httpx.Request, sessions *session.Array, bes []Backend) ([]byte, bool) {
	sc := hostScratches.Get().(*Scratch)
	defer hostScratches.Put(sc)
	failed := r.ExecuteScratch(sc, t, req, sessions, bes)
	return sc.Render(make([]byte, r.specs[t].BufferBytes)), failed
}

// hostScratches are ExecuteHost's execution contexts: the page it
// returns is rendered into a fresh buffer, so nothing of a Scratch
// outlives the call.
var hostScratches = sync.Pool{New: func() any { return NewScratch() }}

// ExecuteScratch is ExecuteHost without the allocations: the page is
// left in sc for sc.Render into a caller buffer.
func (r *Registry) ExecuteScratch(sc *Scratch, t TypeID, req *httpx.Request, sessions *session.Array, bes []Backend) (failed bool) {
	i := r.widx[t]
	return r.ws[i].ExecuteScratch(sc, r.specs[t].Local, req, sessions, bes[i], true).Err != ""
}
