package banking

import (
	"bytes"
	"fmt"
	"strings"

	"rhythm/internal/httpx"
)

// HeaderLen is the fixed response header size the validator expects.
// Every header field is fixed-width (the session cookie is always 16
// hex digits, the Content-Length is a 10-character padded field), so
// all responses of a cohort have identical geometry.
const HeaderLen = 17 + 25 + 24 + (18 + 16 + 2) + (16 + httpx.ContentLengthPad + 4)

const defaultCookie = "MY_ID=0000000000000000"

// Validate plays the SPECWeb client validator's role for one response:
// it checks the HTTP framing, the fixed geometry, the session cookie
// discipline, and per-type page markers. A nil error means the response
// would pass the benchmark's correctness check.
func Validate(t ReqType, resp []byte) error {
	spec := Specs[t]
	if len(resp) != spec.BufferBytes() {
		return fmt.Errorf("banking: %s response is %d bytes, want %d", spec.Name, len(resp), spec.BufferBytes())
	}
	status, hdrs, body, err := httpx.ParseResponse(resp)
	if err != nil {
		return fmt.Errorf("banking: %s response framing: %w", spec.Name, err)
	}
	if status != 200 {
		return fmt.Errorf("banking: %s status %d", spec.Name, status)
	}
	if ct := hdrs["Content-Type"]; ct != "text/html" {
		return fmt.Errorf("banking: %s content type %q", spec.Name, ct)
	}
	if len(body) != spec.BufferBytes()-HeaderLen {
		return fmt.Errorf("banking: %s body %d bytes, want %d", spec.Name, len(body), spec.BufferBytes()-HeaderLen)
	}
	cookie := hdrs["Set-Cookie"]
	if !strings.HasPrefix(cookie, "MY_ID=") || len(cookie) != len(defaultCookie) {
		return fmt.Errorf("banking: %s cookie %q malformed", spec.Name, cookie)
	}
	if bytes.Contains(body, []byte("Request failed")) {
		// Error pages are framed correctly but must not validate as
		// successful workload responses.
		return fmt.Errorf("banking: %s returned an error page", spec.Name)
	}
	marker := pageMarkers[t]
	if !bytes.Contains(body, []byte(marker)) {
		return fmt.Errorf("banking: %s body missing marker %q", spec.Name, marker)
	}
	switch t {
	case Login:
		if cookie == defaultCookie {
			return fmt.Errorf("banking: login did not set a session cookie")
		}
	case Logout:
		if cookie != defaultCookie {
			return fmt.Errorf("banking: logout did not clear the session cookie")
		}
	}
	return nil
}

// pageMarkers are the per-type strings the validator requires, standing
// in for the SPECWeb validator's page checks.
var pageMarkers = [NumTypes]string{
	Login:               "<h1>Login successful</h1>",
	AccountSummary:      "<h1>Account Summary</h1>",
	AddPayee:            "<h1>Add a payee</h1>",
	BillPay:             "<h1>Pay a bill</h1>",
	BillPayStatusOutput: "<h1>Bill payment history</h1>",
	ChangeProfile:       "<h1>Update your contact information</h1>",
	CheckDetailHTML:     "<h1>Cleared check detail</h1>",
	OrderCheck:          "<h1>Order checks</h1>",
	PlaceCheckOrder:     "<h1>Your check order has been placed</h1>",
	PostPayee:           "<h1>Payee added</h1>",
	PostTransfer:        "<h1>Transfer",
	Profile:             "<h1>Your profile</h1>",
	Transfer:            "<h1>Transfer between your accounts</h1>",
	Logout:              "<h1>You have signed off</h1>",
	QuickPay:            "<h1>Quick pay complete</h1>",
}
