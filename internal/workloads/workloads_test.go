package workloads_test

import (
	"strings"
	"testing"

	"rhythm/internal/backend"
	"rhythm/internal/service"
	"rhythm/internal/workloads"
)

// TestRegistryDisplayLabels: every registered type of the default
// registry — banking included — is labelled workload/name, so the stats
// keys, metric labels and flight types are one universe; and two types
// that would collide on that label make NewRegistry panic.
func TestRegistryDisplayLabels(t *testing.T) {
	reg := workloads.Default()
	names := reg.DisplayNames()
	if len(names) != reg.NumTypes() {
		t.Fatalf("DisplayNames has %d entries for %d types", len(names), reg.NumTypes())
	}
	for id, got := range names {
		sp := reg.Spec(service.TypeID(id))
		if want := sp.Workload + "/" + sp.Name; got != want {
			t.Errorf("type %d display = %q, want %q", id, got, want)
		}
	}
	if names[0] != "banking/login" {
		t.Errorf("first type is %q, want banking/login", names[0])
	}

	stage := func(*service.Ctx, int, []byte) []byte { return nil }
	def := func(path string) service.SvcDef {
		return service.SvcDef{Name: "page", Path: path, BufferBytes: 4096, Stage: stage}
	}
	w := service.NewPageWorkload(service.PageWorkloadConfig{
		Name:       "dup",
		Defs:       []service.SvcDef{def("/a"), def("/b")},
		NewBackend: func() service.Backend { return backend.New() },
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `duplicate display label "dup/page"`) {
			t.Fatalf("NewRegistry(duplicate workload/name) panicked with %q", msg)
		}
	}()
	service.NewRegistry(w)
	t.Fatal("NewRegistry accepted two types named dup/page")
}
