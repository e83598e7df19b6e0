package banking

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rhythm/internal/backend"
	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
)

// harness bundles the server-side state a host execution needs.
type harness struct {
	w        *service.PageWorkload
	db       *backend.DB
	sessions *session.Array
	gen      *Generator
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{w: NewWorkload(), db: backend.New(), sessions: session.NewArray(1024, 64)}
	h.gen = NewGenerator(42, h.sessions)
	h.gen.Populate(512)
	return h
}

// run generates and executes one request of type rt, returning the ctx
// and rendered response.
func (h *harness) run(t *testing.T, rt ReqType) (*service.Ctx, []byte) {
	t.Helper()
	raw := h.gen.Request(rt)
	req, err := httpx.Parse(raw)
	if err != nil {
		t.Fatalf("%s: generated request does not parse: %v", rt, err)
	}
	typ, ok := ByPath(req.Path)
	if !ok || typ != rt {
		t.Fatalf("%s: path %q resolves to %v, %v", rt, req.Path, typ, ok)
	}
	ctx := h.w.Execute(int(rt), &req, h.sessions, h.db, true)
	return ctx, ctx.RenderAlloc()
}

func TestAllTypesValidate(t *testing.T) {
	h := newHarness(t)
	for rt := ReqType(0); rt < NumTypes; rt++ {
		rt := rt
		t.Run(rt.String(), func(t *testing.T) {
			for i := 0; i < 5; i++ {
				ctx, resp := h.run(t, rt)
				if ctx.Err != "" {
					t.Fatalf("request failed: %s", ctx.Err)
				}
				if err := Validate(rt, resp); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestContentSizesMatchTable2(t *testing.T) {
	h := newHarness(t)
	for rt := ReqType(0); rt < NumTypes; rt++ {
		ctx, _ := h.run(t, rt)
		want := Specs[rt].ContentBytes()
		got := ctx.Page.Len()
		if got != want {
			t.Errorf("%s: content %d bytes, want %d (Table 2 SPECWeb column)", rt, got, want)
		}
	}
}

func TestInstrCountsNearPaper(t *testing.T) {
	// The structural cost model should land within 2x of the paper's
	// Pin-measured instruction counts for every type — that is the
	// calibration contract documented in DESIGN.md.
	h := newHarness(t)
	for rt := ReqType(0); rt < NumTypes; rt++ {
		if Specs[rt].Extension {
			continue // no paper measurement exists for extensions
		}
		var total int64
		const n = 20
		for i := 0; i < n; i++ {
			ctx, _ := h.run(t, rt)
			if ctx.Err != "" {
				t.Fatalf("%s: %s", rt, ctx.Err)
			}
			total += ctx.Instr()
		}
		got := total / n
		paper := Specs[rt].PaperInstr
		ratio := float64(got) / float64(paper)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: modeled %d instr vs paper %d (ratio %.2f)", rt, got, paper, ratio)
		}
	}
}

func TestPaddingKeepsSectionMarksUniform(t *testing.T) {
	// The §4.3.2 invariant: with padding on, every request of a type
	// reaches identical body offsets at each PadTo boundary, so cohort
	// lanes stay aligned across dynamic sections.
	h := newHarness(t)
	for rt := ReqType(0); rt < NumTypes; rt++ {
		var ref []int
		for i := 0; i < 8; i++ {
			ctx, _ := h.run(t, rt)
			if ctx.Err != "" {
				t.Fatalf("%s: %s", rt, ctx.Err)
			}
			if ctx.Page.Misaligned() != 0 {
				t.Errorf("%s: %d PadTo budgets overshot", rt, ctx.Page.Misaligned())
			}
			marks := ctx.Page.Marks()
			if ref == nil {
				ref = append([]int(nil), marks...)
				continue
			}
			if len(marks) != len(ref) {
				t.Errorf("%s: mark count varies (%d vs %d)", rt, len(marks), len(ref))
				continue
			}
			for k := range ref {
				if marks[k] != ref[k] {
					t.Errorf("%s: mark %d at offset %d vs %d", rt, k, marks[k], ref[k])
					break
				}
			}
		}
	}
}

func TestUnpaddedSectionMarksDiverge(t *testing.T) {
	// Ablation sanity: with padding off, account_summary section marks
	// differ across users (dynamic balances have different widths).
	h := newHarness(t)
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		raw := h.gen.Request(AccountSummary)
		req, _ := httpx.Parse(raw)
		ctx := h.w.Execute(int(AccountSummary), &req, h.sessions, h.db, false)
		if ctx.Err != "" {
			t.Fatal(ctx.Err)
		}
		seen[fmt.Sprint(ctx.Page.Marks())] = true
	}
	if len(seen) < 2 {
		t.Fatal("unpadded section marks did not vary — padding ablation is vacuous")
	}
}

func TestLoginCreatesSessionLogoutDeletes(t *testing.T) {
	h := newHarness(t)
	before := h.sessions.Len()
	ctx, resp := h.run(t, Login)
	if ctx.Err != "" {
		t.Fatal(ctx.Err)
	}
	if h.sessions.Len() != before+1 {
		t.Fatal("login did not create a session")
	}
	if err := Validate(Login, resp); err != nil {
		t.Fatal(err)
	}
	// Use the fresh cookie for a logout.
	_, hdrs, _, _ := httpx.ParseResponse(resp)
	cookieVal := strings.TrimPrefix(hdrs["Set-Cookie"], "MY_ID=")
	raw := fmt.Sprintf("GET /logout.php HTTP/1.1\r\nCookie: MY_ID=%s\r\n\r\n", cookieVal)
	req, _ := httpx.Parse([]byte(raw))
	ctx2 := h.w.Execute(int(Logout), &req, h.sessions, h.db, true)
	if ctx2.Err != "" {
		t.Fatal(ctx2.Err)
	}
	if h.sessions.Len() != before {
		t.Fatal("logout did not delete the session")
	}
}

func TestBadCredentialsFail(t *testing.T) {
	h := newHarness(t)
	raw := "POST /login.php HTTP/1.1\r\nContent-Length: 26\r\n\r\nuserid=55&passwd=wrongpass"
	req, _ := httpx.Parse([]byte(raw))
	ctx := h.w.Execute(int(Login), &req, h.sessions, h.db, true)
	if ctx.Err == "" {
		t.Fatal("bad credentials accepted")
	}
	resp := ctx.RenderAlloc()
	if err := Validate(Login, resp); err == nil {
		t.Fatal("error page validated as success")
	}
	// But the error page still has correct framing and full size.
	if len(resp) != Specs[Login].BufferBytes() {
		t.Fatal("error page not full buffer size")
	}
	if _, _, _, err := httpx.ParseResponse(resp); err != nil {
		t.Fatalf("error page framing: %v", err)
	}
}

func TestExpiredSessionFails(t *testing.T) {
	h := newHarness(t)
	raw := "GET /profile.php HTTP/1.1\r\nCookie: MY_ID=ffffffffffffffff\r\n\r\n"
	req, _ := httpx.Parse([]byte(raw))
	ctx := h.w.Execute(int(Profile), &req, h.sessions, h.db, true)
	if ctx.Err == "" {
		t.Fatal("forged session accepted")
	}
}

func TestMissingCookieFails(t *testing.T) {
	h := newHarness(t)
	raw := "GET /transfer.php HTTP/1.1\r\n\r\n"
	req, _ := httpx.Parse([]byte(raw))
	ctx := h.w.Execute(int(Transfer), &req, h.sessions, h.db, true)
	if ctx.Err == "" {
		t.Fatal("cookie-less request accepted")
	}
}

func TestTable2Averages(t *testing.T) {
	// The mix-weighted averages the paper reports: 15.5 KB content,
	// 26.4 KB buffers, 1.2 backend requests.
	if got := AvgContentBytes() / 1024; got < 15.0 || got > 16.0 {
		t.Errorf("avg content = %.1f KB, want ~15.5", got)
	}
	if got := AvgBufferBytes() / 1024; got < 25.9 || got > 26.9 {
		t.Errorf("avg buffer = %.1f KB, want ~26.4", got)
	}
	if got := AvgBackends(); got < 1.1 || got > 1.3 {
		t.Errorf("avg backends = %.2f, want ~1.2", got)
	}
}

func TestMixSumsTo100(t *testing.T) {
	var sum float64
	for _, s := range Specs {
		sum += s.MixPercent
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("mix sums to %.2f", sum)
	}
}

func TestSampleTypeFollowsMix(t *testing.T) {
	h := newHarness(t)
	counts := make([]int, NumTypes)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[h.gen.SampleType()]++
	}
	for rt, s := range Specs {
		got := float64(counts[rt]) / n * 100
		if s.MixPercent > 5 && (got < s.MixPercent*0.7 || got > s.MixPercent*1.3) {
			t.Errorf("%s: sampled %.1f%%, mix says %.2f%%", s.Name, got, s.MixPercent)
		}
	}
}

func TestGeneratedRequestsFitSlot(t *testing.T) {
	h := newHarness(t)
	for rt := ReqType(0); rt < NumTypes; rt++ {
		for i := 0; i < 20; i++ {
			if raw := h.gen.Request(rt); len(raw) > RequestSlot {
				t.Fatalf("%s request %d bytes", rt, len(raw))
			}
		}
	}
}

func TestByPath(t *testing.T) {
	if _, ok := ByPath("/favicon.ico"); ok {
		t.Fatal("unknown path resolved")
	}
	rt, ok := ByPath("/bill_pay.php")
	if !ok || rt != BillPay {
		t.Fatalf("ByPath = %v, %v", rt, ok)
	}
}

func TestBlocksRecorded(t *testing.T) {
	h := newHarness(t)
	ctx, _ := h.run(t, AccountSummary)
	blocks := ctx.Page.Blocks()
	if len(blocks) < 10 {
		t.Fatalf("only %d trace blocks for account_summary", len(blocks))
	}
	base := blockBase(AccountSummary)
	for _, b := range blocks {
		id := b &^ 0x8000_0000 // strip the emission-block marker
		if id < base || id >= base+1000 {
			t.Fatalf("block %d outside type's id space", b)
		}
	}
}

func TestTraceVariesWithData(t *testing.T) {
	// Different users have 2-4 accounts, so account-row blocks repeat a
	// different number of times — the small real divergence Fig 2 merges.
	h := newHarness(t)
	lens := map[int]bool{}
	for i := 0; i < 30; i++ {
		ctx, _ := h.run(t, AccountSummary)
		lens[len(ctx.Page.Blocks())] = true
	}
	if len(lens) < 2 {
		t.Fatal("traces identical across users; expected loop-count variation")
	}
}

func TestParseMoney(t *testing.T) {
	cases := map[string]struct {
		cents int64
		ok    bool
	}{
		"12.34":  {1234, true},
		"$5":     {500, true},
		"0.07":   {7, true},
		"3.5":    {350, true},
		"":       {0, false},
		"1.234":  {0, false},
		"-4":     {0, false},
		"x":      {0, false},
		"12.":    {1200, true},
		" 8.00 ": {800, true},
	}
	for in, want := range cases {
		got, ok := parseMoney(in)
		if ok != want.ok || (ok && got != want.cents) {
			t.Errorf("parseMoney(%q) = %d, %v; want %d, %v", in, got, ok, want.cents, want.ok)
		}
	}
}

func TestMoneyFormat(t *testing.T) {
	var p service.PageBuilder
	for cents, want := range map[int64]string{
		123456: "$1234.56", -50: "-$0.50", 0: "$0.00", 7: "$0.07", -9999999999: "-$99999999.99",
		math.MinInt64: "-$92233720368547758.08",
	} {
		if got := money(&p, cents); got != want {
			t.Errorf("money(%d) = %q, want %q", cents, got, want)
		}
	}
}

func TestHeaderLenMatchesRender(t *testing.T) {
	h := newHarness(t)
	_, resp := h.run(t, Profile)
	// Find the body start.
	idx := strings.Index(string(resp), "\r\n\r\n")
	if idx+4 != HeaderLen {
		t.Fatalf("actual header %d bytes, const says %d", idx+4, HeaderLen)
	}
}
