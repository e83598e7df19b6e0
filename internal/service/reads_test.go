package service_test

import (
	"testing"

	"rhythm/internal/backend"
	"rhythm/internal/ecom"
	"rhythm/internal/service"
	"rhythm/internal/telemetry"
)

// TestWriteVerbsAreNotReads: every verb that may store something or
// fire the write hook reports Reads false, so its stage-kernel commit
// is ordered, never run beside another. BILLS is one: a user's first
// BILLS seeds the history a later payment's confirmation counts.
func TestWriteVerbsAreNotReads(t *testing.T) {
	for _, c := range []struct {
		be   service.Backend
		reqs []string
	}{
		{backend.New(), []string{"BILLS 5 20", "TRANSFER 5 0 1 100", "ADDPAYEE 5 Acme P-1", "BILLPAY 5 Acme 1500 2009-05-05",
			"POSTPROFILE 5 email=x@y"}},
		{ecom.NewStore(), []string{"ADDCART 5 4242 2", "ORDER 5"}},
		{telemetry.NewBroker(), []string{"PUB 7 00ff", "SUB 7 3", "POLL 7 3 24"}},
	} {
		for _, req := range c.reqs {
			if c.be.Reads([]byte(req)) {
				t.Errorf("%T: Reads(%q) = true for a write", c.be, req)
			}
		}
	}
}
