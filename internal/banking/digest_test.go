package banking

import (
	"fmt"
	"strings"
	"testing"

	"rhythm/internal/backend"
	"rhythm/internal/service/servicetest"
	"rhythm/internal/session"
)

// digestScript covers every banking type, each error page, and the
// formatting corners: one- to thirteen-digit user ids, zero, negative and
// nine-digit money amounts, text that needs escaping, check numbers on
// both sides of the %-10s column, and lists longer than their page's cap.
func digestScript(t testing.TB) (servicetest.World, []servicetest.Round) {
	wd := servicetest.World{Sessions: session.NewArray(256, 64), Backend: backend.New()}
	uids := []uint64{7, 8, 9, 42, 1001, 65536, 123456789, 1<<40 + 5, 9999999999999}
	sids := make([]string, len(uids))
	for i, uid := range uids {
		sid, _, ok := wd.Sessions.Create(uid)
		if !ok {
			t.Fatal("session table full")
		}
		sids[i] = sid.String()
	}
	get := func(path, sid string) string {
		return "GET " + path + " HTTP/1.1\r\nHost: bank\r\nCookie: MY_ID=" + sid + "\r\n\r\n"
	}
	post := func(path, sid, body string) string {
		return fmt.Sprintf("POST %s HTTP/1.1\r\nHost: bank\r\nCookie: MY_ID=%s\r\nContent-Length: %d\r\n\r\n%s", path, sid, len(body), body)
	}
	var rounds []servicetest.Round
	add := func(rt ReqType, raw ...string) {
		rounds = append(rounds, servicetest.Round{Local: int(rt), Raw: raw})
	}
	// each is one request of path per scripted user.
	each := func(rt ReqType) {
		var raw []string
		for _, sid := range sids {
			raw = append(raw, get(Specs[rt].Path, sid))
		}
		add(rt, raw...)
	}
	login := func(userid, passwd string) string {
		body := "userid=" + userid + "&passwd=" + passwd
		return fmt.Sprintf("POST /login.php HTTP/1.1\r\nHost: bank\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	}

	// Logins land in distinct buckets: same-bucket creates of one cohort
	// may take each other's node (session.Array).
	var logins []string
	buckets := map[int]bool{}
	for _, uid := range []uint64{11, 222, 3333, 44444, 5555555, 1 << 33, 77777777777} {
		if b := session.BucketFor(uid, 256); buckets[b] {
			t.Fatalf("login uid %d shares bucket %d", uid, b)
		} else {
			buckets[b] = true
		}
		logins = append(logins, login(fmt.Sprint(uid), backend.PasswordFor(uid)))
	}
	logins = append(logins, login("11", "wrong"), login("abc", "pw"), login("12", ""))
	add(Login, logins...)

	each(AccountSummary)
	add(AccountSummary,
		"GET /account_summary.php HTTP/1.1\r\nHost: bank\r\n\r\n",
		get("/account_summary.php", "ffffffffffffffff"),
		get("/account_summary.php", "xyz"))
	each(AddPayee)
	each(BillPay)
	add(PostPayee,
		post("/post_payee.php", sids[0], "name=Acme+Power&account=P-000001"),
		post("/post_payee.php", sids[1], "name=%3CTom+%26+%22Jerry%22%3E&account=A%26B"),
		post("/post_payee.php", sids[2], "name=&account=P-1"),
		post("/post_payee.php", sids[3], "name=NoAccount"))
	for k := 0; k < 15; k++ { // past bill_pay's 12 and post_payee's 16 rows
		add(PostPayee, post("/post_payee.php", sids[4], fmt.Sprintf("name=Vendor%04d&account=P-%06d", k*731, k*99991)))
	}
	each(BillPay)
	each(BillPayStatusOutput)
	add(QuickPay,
		post("/quick_pay.php", sids[0], "payee1=Gas+Co&amount1=0.00"),
		post("/quick_pay.php", sids[1], "payee1=Water&amount1=12&payee2=Power+Co&amount2=99999999.99"),
		post("/quick_pay.php", sids[2], "payee1=A&amount1=$5.5&payee2=B&amount2=0.07&payee3=%3Cb%3E&amount3=1234567.89"),
		post("/quick_pay.php", sids[3], "payee1=A&amount1=1.234"),
		post("/quick_pay.php", sids[4], "amount1=3.00"),
		post("/quick_pay.php", sids[5], "payee2=Second+Only&amount2=40.10"))
	each(BillPayStatusOutput)
	each(ChangeProfile)
	each(Profile)
	add(CheckDetailHTML,
		get("/check_detail_html.php?check_no=1", sids[0]),
		get("/check_detail_html.php?check_no=1234", sids[1]),
		get("/check_detail_html.php?check_no=9999999", sids[2]),
		get("/check_detail_html.php?check_no=1234567890", sids[3]),
		get("/check_detail_html.php?check_no=12345678901", sids[4]),
		get("/check_detail_html.php?check_no=abc", sids[5]),
		get("/check_detail_html.php?check_no=0", sids[6]),
		get("/check_detail_html.php", sids[7]))
	each(OrderCheck)
	add(PlaceCheckOrder,
		post("/place_check_order.php", sids[0], "style=standard&quantity=100"),
		post("/place_check_order.php", sids[1], "style=premium&quantity=400"),
		post("/place_check_order.php", sids[2], "style=premium&quantity=1000"),
		post("/place_check_order.php", sids[3], "style=gold&quantity=100"),
		post("/place_check_order.php", sids[4], "style=standard&quantity=1001"),
		post("/place_check_order.php", sids[5], "style=standard&quantity=0"),
		post("/place_check_order.php", sids[6], "style=standard&quantity=1"))
	each(Transfer)
	add(PostTransfer,
		post("/post_transfer.php", sids[0], "from=0&to=1&amount=0.01"),
		post("/post_transfer.php", sids[1], "from=1&to=0&amount=50.00"),
		post("/post_transfer.php", sids[2], "from=0&to=1&amount=0.00"),
		post("/post_transfer.php", sids[3], "from=0&to=1&amount=99999999.99"),
		post("/post_transfer.php", sids[4], "from=1&to=1&amount=1.00"),
		post("/post_transfer.php", sids[5], "from=0&to=9&amount=1.00"),
		post("/post_transfer.php", sids[6], "from=0&to=1&amount=1.234"),
		post("/post_transfer.php", sids[7], "from=x&to=1&amount=1.00"),
		post("/post_transfer.php", sids[8], "from=0&to=1&amount=%3Cb%3E"))
	add(PostTransfer,
		post("/post_transfer.php", sids[0], "from=1&to=0&amount=100"),
		post("/post_transfer.php", sids[1], "from=0&to=1&amount=$7.5"))
	each(AccountSummary)
	each(Transfer)
	add(Logout, get("/logout.php", sids[7]), get("/logout.php", sids[8]), get("/logout.php", "0000000000000000"))
	add(AccountSummary, get("/account_summary.php", sids[7]), get("/account_summary.php", sids[0]))
	add(Logout, get("/logout.php", sids[7]))

	// One seeded request of every type on top of the hand-written ones.
	gen := NewGenerator(1, wd.Sessions)
	gen.Populate(32)
	for rt := ReqType(0); rt < NumTypes; rt++ {
		add(rt, string(gen.Request(rt)))
	}
	for _, rd := range rounds {
		for _, raw := range rd.Raw {
			if strings.Count(raw, "\r\n\r\n") != 1 {
				t.Fatalf("malformed scripted request %q", raw)
			}
		}
	}
	return wd, rounds
}

// TestResponseDigests holds every byte the host path renders for the
// script to testdata/digests.txt, written from the code as it stood
// before the page kit and the backends were ported off fmt.
func TestResponseDigests(t *testing.T) {
	servicetest.CheckDigests(t, NewWorkload(), digestScript, "testdata/digests.txt")
}

// TestStageKernelsMatchHostOnScript: the script's rounds, bound as
// cohorts on one slot, render what the host path renders, padded and
// unpadded.
func TestStageKernelsMatchHostOnScript(t *testing.T) {
	servicetest.CheckStageKernels(t, NewWorkload(), digestScript)
}

// TestKeptLinesOwnTheirBytes: what the stages keep of a backend response
// survives the backend's next Handle and the lane slot's next fill.
func TestKeptLinesOwnTheirBytes(t *testing.T) {
	servicetest.CheckKeptLines(t, NewWorkload(), digestScript)
}
