package banking

import "testing"

// TestCacheableSet pins the render-cache whitelist: exactly the
// session'd read-only pages are eligible in the registry Spec's
// Cacheable bit.
func TestCacheableSet(t *testing.T) {
	want := map[ReqType]bool{
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
	specs := NewWorkload().Types()
	if len(specs) != int(NumTypes) {
		t.Fatalf("workload declares %d types, want %d", len(specs), NumTypes)
	}
	for tp := ReqType(0); tp < NumTypes; tp++ {
		if specs[tp].Cacheable != want[tp] {
			t.Errorf("spec %s Cacheable = %v, want %v", specs[tp].Name, specs[tp].Cacheable, want[tp])
		}
		// Mutating requests must never serve from the render cache.
		if specs[tp].Cacheable && specs[tp].Post {
			t.Errorf("POST type %s marked cacheable", specs[tp].Name)
		}
	}
}
