// Package banking implements the SPECWeb2009 Banking workload: the 14
// dynamic request types the paper serves (Table 2), as host programs for
// the CPU baselines and as cohort SIMT kernels for Rhythm. Pages are
// generated as real HTTP/HTML bytes sized to the paper's published
// response sizes, with the paper's whitespace alignment padding, and are
// checked by a SPECWeb-client-style validator.
package banking

// ReqType enumerates the implemented Banking request types: the 14 the
// paper implements, plus quick_pay — which the paper skipped (§5.1) and
// this reproduction adds as a variable-stage extension. The 16th
// SPECWeb request, check_detail_images, is served by the GPUfs study
// (internal/harness) rather than this registry because it carries no
// Table 2 characterization.
type ReqType int

// The 14 request types, in Table 2 order, plus the quick_pay extension.
const (
	Login ReqType = iota
	AccountSummary
	AddPayee
	BillPay
	BillPayStatusOutput
	ChangeProfile
	CheckDetailHTML
	OrderCheck
	PlaceCheckOrder
	PostPayee
	PostTransfer
	Profile
	Transfer
	Logout
	// QuickPay is the request the paper skipped because it "uses a
	// variable number of kernel launches based on backend data, making it
	// difficult to implement" (§5.1). This reproduction implements it as
	// an extension: one bill payment per listed payee, so a cohort's
	// threads retire at different process stages and the remaining warp
	// mask shrinks — exactly the variable-launch structure the paper
	// describes. It carries zero mix weight and is excluded from every
	// Table 2/3 reproduction.
	QuickPay
	NumTypes // sentinel
)

// Spec describes one request type: its URL, the paper's published
// workload characterization (Table 2), and the buffer geometry Rhythm
// uses for it.
type Spec struct {
	Type ReqType
	// Name is the Table 2 row label.
	Name string
	// Path is the resource the SPECWeb client requests.
	Path string
	// PaperInstr is the paper's measured x86 instructions per request
	// (Table 2, column 2) — the calibration target our cost model is
	// compared against, never an input to it.
	PaperInstr int64
	// SpecWebKB is the meaningful response content size (Table 2
	// "SPECWeb" column, KB).
	SpecWebKB int
	// RhythmKB is the padded power-of-two response buffer (Table 2
	// "Rhythm" column, KB).
	RhythmKB int
	// MixPercent is the request's share of the workload (Table 2,
	// normalized to 100%).
	MixPercent float64
	// Backends is the number of backend round trips.
	Backends int
	// Post marks form-submission (POST) requests.
	Post bool
	// Extension marks request types beyond the paper's 14 (quick_pay);
	// they never enter the Table 2/3 reproductions.
	Extension bool
	// VariableStages marks services that may finish before their maximum
	// backend count (quick_pay's data-dependent kernel launches).
	VariableStages bool
}

// Specs is the Table 2 inventory in order.
var Specs = [NumTypes]Spec{
	{Login, "login", "/login.php", 132401, 4, 8, 28.17, 2, true, false, false},
	{AccountSummary, "account_summary", "/account_summary.php", 392243, 17, 32, 19.77, 1, false, false, false},
	{AddPayee, "add_payee", "/add_payee.php", 335605, 18, 32, 1.47, 0, false, false, false},
	{BillPay, "bill_pay", "/bill_pay.php", 334105, 15, 32, 18.18, 1, false, false, false},
	{BillPayStatusOutput, "bill_pay_status_output", "/bill_pay_status_output.php", 485176, 24, 32, 2.92, 1, false, false, false},
	{ChangeProfile, "change_profile", "/change_profile.php", 560505, 29, 32, 1.60, 1, false, false, false},
	{CheckDetailHTML, "check_detail_html", "/check_detail_html.php", 240615, 11, 16, 11.06, 1, false, false, false},
	{OrderCheck, "order_check", "/order_check.php", 433352, 21, 32, 1.60, 1, false, false, false},
	{PlaceCheckOrder, "place_check_order", "/place_check_order.php", 466283, 25, 32, 1.15, 1, true, false, false},
	{PostPayee, "post_payee", "/post_payee.php", 638598, 34, 64, 1.05, 1, true, false, false},
	{PostTransfer, "post_transfer", "/post_transfer.php", 334267, 16, 32, 1.60, 1, true, false, false},
	{Profile, "profile", "/profile.php", 590816, 32, 64, 1.15, 1, false, false, false},
	{Transfer, "transfer", "/transfer.php", 277235, 13, 16, 2.24, 1, false, false, false},
	{Logout, "logout", "/logout.php", 792684, 46, 64, 8.06, 0, false, false, false},
	{QuickPay, "quick_pay", "/quick_pay.php", 0, 12, 16, 0, 3, true, true, true},
}

// CoreTypes returns the paper's 14 request types (no extensions), the
// set every Table 2/3 reproduction iterates.
func CoreTypes() []ReqType {
	var out []ReqType
	for _, s := range Specs {
		if !s.Extension {
			out = append(out, s.Type)
		}
	}
	return out
}

// String returns the Table 2 row label.
func (t ReqType) String() string {
	if t < 0 || t >= NumTypes {
		return "invalid"
	}
	return Specs[t].Name
}

// SpecFor returns the spec of t.
func SpecFor(t ReqType) Spec { return Specs[t] }

// ByPath resolves a request path to its type. It reports false for
// unknown resources (static images, etc.).
func ByPath(path string) (ReqType, bool) {
	for i := range Specs {
		if Specs[i].Path == path {
			return Specs[i].Type, true
		}
	}
	return 0, false
}

// ContentBytes is the meaningful page size in bytes (SPECWeb column).
func (s Spec) ContentBytes() int { return s.SpecWebKB * 1024 }

// BufferBytes is the padded Rhythm response buffer in bytes.
func (s Spec) BufferBytes() int { return s.RhythmKB * 1024 }

// RequestSlot is the fixed per-request input buffer (§6.3: "a request
// size of 512B").
const RequestSlot = 512

// AvgContentBytes reports the mix-weighted mean SPECWeb response size
// (the paper's 15.5 KB).
func AvgContentBytes() float64 {
	var acc, w float64
	for _, s := range Specs {
		acc += float64(s.ContentBytes()) * s.MixPercent
		w += s.MixPercent
	}
	return acc / w
}

// AvgBufferBytes reports the mix-weighted mean Rhythm buffer size (the
// paper's 26.4 KB).
func AvgBufferBytes() float64 {
	var acc, w float64
	for _, s := range Specs {
		acc += float64(s.BufferBytes()) * s.MixPercent
		w += s.MixPercent
	}
	return acc / w
}

// AvgBackends reports the mix-weighted mean backend requests (the
// paper's 1.2).
func AvgBackends() float64 {
	var acc, w float64
	for _, s := range Specs {
		acc += float64(s.Backends) * s.MixPercent
		w += s.MixPercent
	}
	return acc / w
}
