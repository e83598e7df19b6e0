// Package workloads assembles the default workload registry: banking
// first (so its type ids equal the pre-registry universe), then the
// e-commerce and streaming-telemetry workloads. Everything above the
// service contract — servers, harnesses, CLIs — gets its registry here
// or builds a restricted one with Named.
package workloads

import (
	"fmt"
	"strings"

	"rhythm/internal/banking"
	"rhythm/internal/ecom"
	"rhythm/internal/service"
	"rhythm/internal/telemetry"
)

// Names lists the registrable workload names in default order.
var Names = []string{"banking", "ecom", "telemetry"}

// newByName constructs one workload by name.
func newByName(name string) (*service.PageWorkload, error) {
	switch name {
	case "banking":
		return banking.NewWorkload(), nil
	case "ecom":
		return ecom.New(), nil
	case "telemetry":
		return telemetry.New(), nil
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (have %s)", name, strings.Join(Names, ", "))
}

// Default builds the full default registry.
func Default() *service.Registry {
	r, err := Named(Names...)
	if err != nil {
		panic(err)
	}
	return r
}

// Banking builds a banking-only registry (the pre-registry serving
// universe).
func Banking() *service.Registry {
	r, err := Named("banking")
	if err != nil {
		panic(err)
	}
	return r
}

// Named builds a registry restricted to the named workloads, in the
// given order (the rhythmd -workloads flag).
func Named(names ...string) (*service.Registry, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("workloads: no workloads selected")
	}
	ws := make([]*service.PageWorkload, 0, len(names))
	for _, n := range names {
		w, err := newByName(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return service.NewRegistry(ws...), nil
}
