package main

import "testing"

// runtime.allocs_per_req is read from the process-wide Mallocs counter,
// so it measures the server only if the load generator stays out of it:
// at most one allocation per request in the steady state.
func TestClientAllocations(t *testing.T) {
	got := clientAllocsPerRequest()
	if got < 0 {
		t.Fatal("the calibration loop against the stub server failed")
	}
	if got > 1 {
		t.Errorf("the client allocates %.3f times per request, want at most 1", got)
	}
}
