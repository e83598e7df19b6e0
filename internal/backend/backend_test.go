package backend

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// handle is db.Handle of a request line, as a string.
func handle(db *DB, format string, args ...any) string {
	return string(db.Handle([]byte(fmt.Sprintf(format, args...))))
}

// lines is an OK response's lines after the "OK".
func lines(t *testing.T, resp string) []string {
	t.Helper()
	body, ok := strings.CutPrefix(resp, "OK\n")
	if !ok {
		t.Fatalf("response %q is not OK", resp)
	}
	return strings.Split(strings.TrimSuffix(body, "\n"), "\n")
}

// balances is the balance column of an ACCTS response.
func balances(t *testing.T, resp string) []int64 {
	t.Helper()
	var out []int64
	for _, l := range lines(t, resp) {
		cols := strings.Split(l, "|")
		if len(cols) != 3 {
			t.Fatalf("account row %q", l)
		}
		n, err := strconv.ParseInt(cols[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, n)
	}
	return out
}

// stored counts the entries the database's maps hold.
func stored(db *DB) int {
	return len(db.profiles) + len(db.accounts) + len(db.payees) + len(db.orders) + len(db.bills)
}

// snapshot renders everything the database stores, in key order.
func snapshot(db *DB) string {
	profiles := make(map[uint64]profile, len(db.profiles))
	for uid, p := range db.profiles {
		profiles[uid] = *p
	}
	return fmt.Sprint(profiles, db.accounts, db.payees, db.orders, db.bills)
}

// TestSynthesizedBytes pins what reads of an untouched user render.
func TestSynthesizedBytes(t *testing.T) {
	db := New()
	for _, c := range []struct{ req, want string }{
		{"AUTH 1001 " + PasswordFor(1001), "OK\nDora Irwin\nuser1001@specbank.example\n(847) 555-4451\n1000-98024902|checking|270614\n1001-68427092|savings|377796\n1002-53242618|checking|484234\n"},
		{"PROFILE 1001", "OK\nDora Irwin\n295 Hill Rd\nSalt Lake City UT\nuser1001@specbank.example\n(847) 555-4451\n"},
		{"ACCTS 99", "OK\n1000-71429480|checking|194456\n1001-82955700|savings|253092\n"},
		{"PAYEES 5", "OK\nPower Co|P-025133\nWater Works|P-195410\nPower Co|P-532013\n"},
	} {
		if got := handle(db, "%s", c.req); got != c.want {
			t.Errorf("Handle(%q) = %q, want %q", c.req, got, c.want)
		}
	}
}

func TestProfileDeterministic(t *testing.T) {
	p1 := lines(t, handle(New(), "PROFILE 12345"))
	p2 := lines(t, handle(New(), "PROFILE 12345"))
	if fmt.Sprint(p1) != fmt.Sprint(p2) {
		t.Fatalf("profiles differ across instances: %q vs %q", p1, p2)
	}
	for i, f := range p1 {
		if f == "" {
			t.Fatalf("empty field %d: %q", i, p1)
		}
	}
}

func TestAccountsShape(t *testing.T) {
	db := New()
	for uid := uint64(0); uid < 200; uid++ {
		bals := balances(t, handle(db, "ACCTS %d", uid))
		if len(bals) < 2 || len(bals) > 4 {
			t.Fatalf("uid %d: %d accounts", uid, len(bals))
		}
		for _, b := range bals {
			if b < 100_00 {
				t.Fatalf("uid %d: balance %d below floor", uid, b)
			}
		}
	}
}

func TestAuth(t *testing.T) {
	db := New()
	if resp := handle(db, "AUTH 7 %s", PasswordFor(7)); !strings.HasPrefix(resp, "OK\n") {
		t.Fatalf("correct password rejected: %q", resp)
	}
	if resp := handle(db, "AUTH 7 wrong"); resp != "FAIL bad credentials" {
		t.Fatalf("wrong password accepted: %q", resp)
	}
}

func TestTransferConservesMoney(t *testing.T) {
	db := New()
	before := balances(t, handle(db, "ACCTS 99"))
	resp := lines(t, handle(db, "TRANSFER 99 0 1 500"))
	fb, _ := strconv.ParseInt(resp[0], 10, 64)
	tb, _ := strconv.ParseInt(resp[1], 10, 64)
	if fb+tb != before[0]+before[1] || fb != before[0]-500 {
		t.Fatalf("money not conserved: %d + %d != %d + %d", fb, tb, before[0], before[1])
	}
	after := balances(t, handle(db, "ACCTS 99"))
	if after[0] != fb || after[1] != tb {
		t.Fatalf("transfer did not persist: %v", after)
	}
}

func TestTransferErrors(t *testing.T) {
	db := New()
	if _, _, err := db.Transfer(1, 0, 0, 100); !errors.Is(err, errBadAccount) {
		t.Errorf("same-account transfer: %v", err)
	}
	if _, _, err := db.Transfer(1, 0, 9, 100); !errors.Is(err, errBadAccount) {
		t.Errorf("bad index: %v", err)
	}
	if _, _, err := db.Transfer(1, 0, 1, 1<<60); !errors.Is(err, errInsufficientFunds) {
		t.Errorf("overdraft: %v", err)
	}
	if _, _, err := db.Transfer(1, 0, 1, -5); !errors.Is(err, errInsufficientFunds) {
		t.Errorf("negative transfer: %v", err)
	}
	if n := stored(db); n != 0 {
		t.Errorf("failed transfers stored %d entries", n)
	}
}

func TestAddPayeePersists(t *testing.T) {
	db := New()
	base := len(lines(t, handle(db, "PAYEES 5")))
	db.AddPayee(5, "NewCo", "P-000001")
	got := lines(t, handle(db, "PAYEES 5"))
	if len(got) != base+1 || got[len(got)-1] != "NewCo|P-000001" {
		t.Fatalf("payees = %q", got)
	}
}

func TestBillsSeededAndAppended(t *testing.T) {
	db := New()
	if seeded := lines(t, handle(db, "BILLS 11 10")); len(seeded) != seededBills {
		t.Fatalf("seeded bill history %q", seeded)
	}
	conf := db.PayBill(11, "Gas&Go", 2000, "2009-06-01")
	if !strings.HasPrefix(conf, "BP-") {
		t.Fatalf("confirmation %q", conf)
	}
	if latest := lines(t, handle(db, "BILLS 11 1")); !strings.HasPrefix(latest[0], conf) {
		t.Fatalf("latest bill %q does not match confirmation %q", latest[0], conf)
	}
}

// TestPayBillConfirmation: a confirmation id counts the lines of the
// user's bill history, so a BILLS read before the first payment (which
// shows the six seeded lines) moves it. The bytes are pinned.
func TestPayBillConfirmation(t *testing.T) {
	pay := "BILLPAY 11 Gas&Go 2000 2009-06-01"

	db := New()
	if got := handle(db, "%s", pay); got != "OK\nBP-10c6b98d\n" {
		t.Errorf("first payment with no read = %q", got)
	}
	if got := handle(db, "BILLS 11 20"); got != "OK\nBP-10c6b98d|Gas&Go|2000|2009-06-01\n" {
		t.Errorf("history after an unread payment = %q", got)
	}

	db = New()
	if got := handle(db, "BILLS 11 2"); got != "OK\nBP-4dd3ea9a|Water Works|1106|2009-07-08\nBP-ad1405cc|Grocery Mart|27316|2009-10-13\n" {
		t.Errorf("seeded history = %q", got)
	}
	if got := handle(db, "%s", pay); got != "OK\nBP-9046f2bf\n" {
		t.Errorf("first payment after a read = %q", got)
	}
	if got := handle(db, "BILLS 11 3"); got != "OK\nBP-9046f2bf|Gas&Go|2000|2009-06-01\nBP-4dd3ea9a|Water Works|1106|2009-07-08\nBP-ad1405cc|Grocery Mart|27316|2009-10-13\n" {
		t.Errorf("history after a read payment = %q", got)
	}
}

// pureReads are request lines of every read verb that keeps nothing.
var pureReads = []string{
	"AUTH %d pw00000000",
	"PROFILE %d",
	"SUMMARY %d",
	"ACCTS %d",
	"PAYEES %d",
	"TXNS %d 1 20",
	"CHECKINFO %d 1234",
	"ORDERCHECK %d premium 50",
}

// TestReadsKeepNothing: reads on fresh users store nothing — except a
// BILLS read, which records only that it showed the seeded history —
// and a read after a write renders the written state.
func TestReadsKeepNothing(t *testing.T) {
	db := New()
	for uid := 1; uid <= 1000; uid++ {
		handle(db, "AUTH %d %s", uid, PasswordFor(uint64(uid)))
		for _, r := range pureReads {
			handle(db, r, uid)
		}
	}
	if n := stored(db); n != 0 {
		t.Fatalf("reads on 1000 fresh users stored %d entries", n)
	}
	for uid := 1; uid <= 1000; uid++ {
		handle(db, "BILLS %d 20", uid)
	}
	for uid, h := range db.bills {
		if h.seeds != seededBills || len(h.paid) != 0 {
			t.Fatalf("BILLS read of %d stored %+v", uid, h)
		}
	}
	if n := stored(db); n != 1000 || len(db.bills) != 1000 {
		t.Fatalf("BILLS reads on 1000 fresh users stored %d entries (%d bill histories)", n, len(db.bills))
	}

	summary := func() []int64 {
		accts, _, _ := strings.Cut(handle(db, "SUMMARY 7"), "--\n")
		return balances(t, accts)
	}
	before := summary()
	handle(db, "TRANSFER 7 0 1 2500")
	after := summary()
	if after[0] != before[0]-2500 || after[1] != before[1]+2500 {
		t.Fatalf("SUMMARY after TRANSFER: %v, before %v", after, before)
	}

	handle(db, "POSTPROFILE 7 email=new@x.example phone=555-0000")
	p := lines(t, handle(db, "PROFILE 7"))
	if p[fieldEmail] != "new@x.example" || p[fieldPhone] != "555-0000" {
		t.Fatalf("PROFILE after POSTPROFILE: %q", p)
	}
	auth := lines(t, handle(db, "AUTH 7 %s", PasswordFor(7)))
	if auth[1] != "new@x.example" {
		t.Fatalf("AUTH after POSTPROFILE: %q", auth)
	}
}

// TestReadsDoNotAllocate: a read of an untouched user renders straight
// into the response buffer.
func TestReadsDoNotAllocate(t *testing.T) {
	db := New()
	handle(db, "TXNS 1 0 40") // grow the response buffer
	// pureReads' AUTH fails on its password. Beside them: a successful
	// AUTH, two verbs short of arguments, an unknown verb, PING, a
	// quantity out of range, two failing transfers and two malformed
	// numbers — every reply, a failure's too, is written into the one
	// response buffer, and no failure builds an error value.
	reqs := append([]string{"AUTH %d " + PasswordFor(424242), "AUTH %d", "TXNS %d 0", "BOGUS %d", "PING %d", "PLACEORDER %d standard 0",
		"TRANSFER %d 0 0 100", "TRANSFER %d 0 1 999999999999", "PROFILE x", "TXNS %d x 3"}, pureReads...)
	for _, r := range reqs {
		req := []byte(strings.Replace(r, "%d", "424242", 1))
		if allocs := testing.AllocsPerRun(100, func() { db.Handle(req) }); allocs != 0 {
			t.Errorf("%s: %v allocations per call", req, allocs)
		}
	}
}

// TestParseMatchesStrconv: the request path's integer parsers return
// what strconv returns beside its error, overflow and syntax errors too.
func TestParseMatchesStrconv(t *testing.T) {
	for _, s := range []string{"", "0", "7", "+7", "-7", "-", "+", "x", "12x", "-0", "007", " 1", "1_000", "0x10",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"18446744073709551615", "18446744073709551616", "99999999999999999999x", "-99999999999999999999x", "x99999999999999999999"} {
		want, _ := strconv.ParseInt(s, 10, 64)
		if got := parseInt(s); got != want {
			t.Errorf("parseInt(%q) = %d, strconv gives %d", s, got, want)
		}
		wantU, err := strconv.ParseUint(s, 10, 64)
		if got, ok := parseUint(s); got != wantU || ok != (err == nil) {
			t.Errorf("parseUint(%q) = %d, %v; strconv gives %d, %v", s, got, ok, wantU, err)
		}
		if want, _ := strconv.Atoi(s); int(parseInt(s)) != want {
			t.Errorf("int(parseInt(%q)) = %d, Atoi gives %d", s, parseInt(s), want)
		}
	}
}

func TestHandleWireProtocol(t *testing.T) {
	db := New()
	cases := []struct {
		req    string
		prefix string
	}{
		{"PING", "PONG"},
		{"PROFILE 42", "OK\n"},
		{"ACCTS 42", "OK\n"},
		{"TXNS 42 0 10", "OK\n"},
		{"PAYEES 42", "OK\n"},
		{"ADDPAYEE 42 Acme P-9", "OK\n"},
		{"BILLPAY 42 Acme 1500 2009-05-05", "OK\n"},
		{"BILLS 42 5", "OK\n"},
		{"TRANSFER 42 0 1 100", "OK\n"},
		{"CHECKINFO 42 1234", "OK\n"},
		{"ORDERCHECK 42 standard 100", "OK\n"},
		{"PLACEORDER 42 standard 100", "OK\n"},
		{"PLACEORDER 42 standard 0", "ERR"},
		{"SUMMARY 42", "OK\n"},
		{"POSTPROFILE 42 email=x@y phone=5551234", "OK\n"},
		{"BOGUS 42", "ERR"},
		{"", "ERR"},
		{"PROFILE", "ERR"},
		{"PROFILE notanumber", "ERR"},
		{"TXNS 42 0 9999", "ERR"},
		{"TRANSFER 42 0 0 100", "FAIL backend: bad account index 0->0"},
		{"TRANSFER 42 0 1 999999999999", "FAIL backend: insufficient funds"},
	}
	for _, c := range cases {
		resp := string(db.Handle([]byte(c.req)))
		if !strings.HasPrefix(resp, c.prefix) {
			t.Errorf("Handle(%q) = %q, want prefix %q", c.req, resp, c.prefix)
		}
	}
}

func TestHandleAuthFlow(t *testing.T) {
	db := New()
	name := lines(t, handle(db, "PROFILE 1001"))[fieldName]
	resp := handle(db, "AUTH 1001 %s", PasswordFor(1001))
	if !strings.HasPrefix(resp, "OK\n") || !strings.Contains(resp, name) {
		t.Fatalf("AUTH response %q", resp)
	}
	if resp := handle(db, "AUTH 1001 nope"); !strings.HasPrefix(resp, "FAIL") {
		t.Fatalf("bad AUTH response %q", resp)
	}
}

func TestResponsesFitSlot(t *testing.T) {
	db := New()
	f := func(uid uint64, n uint8) bool {
		reqs := []string{
			fmt.Sprintf("PROFILE %d", uid),
			fmt.Sprintf("ACCTS %d", uid),
			fmt.Sprintf("TXNS %d 0 %d", uid, n%40+1),
			fmt.Sprintf("PAYEES %d", uid),
			fmt.Sprintf("BILLS %d %d", uid, n%20+1),
		}
		for _, r := range reqs {
			if len(db.Handle([]byte(r))) > ResponseSlot {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestsCounter(t *testing.T) {
	db := New()
	db.Handle([]byte("PING"))
	db.Handle([]byte("PING"))
	if db.Requests() != 2 {
		t.Fatalf("Requests = %d", db.Requests())
	}
}

// TestTxnsDeterministic: statement lines are synthesized from the user
// and account alone, so any two databases answer TXNS alike.
func TestTxnsDeterministic(t *testing.T) {
	req := []byte("TXNS 5 0 10")
	a := string(New().Handle(req))
	b := string(New().Handle(req))
	if a != b || strings.Count(a, "\n") != 11 {
		t.Fatalf("TXNS differs or is short:\n%s\n--\n%s", a, b)
	}
}

func TestOrderCheckPricing(t *testing.T) {
	db := New()
	std := lines(t, handle(db, "ORDERCHECK 1 standard 100"))
	prem := lines(t, handle(db, "ORDERCHECK 1 premium 100"))
	s, _ := strconv.Atoi(std[1])
	p, _ := strconv.Atoi(prem[1])
	if s != 4500 || p != 2*s {
		t.Fatalf("premium %d, standard %d", p, s)
	}
}

func TestUpdateProfileIgnoresEmpty(t *testing.T) {
	db := New()
	before := lines(t, handle(db, "PROFILE 3"))
	db.UpdateProfile(3, map[string]string{"address": "", "email": "new@x"})
	p := lines(t, handle(db, "PROFILE 3"))
	if p[fieldAddress] != before[fieldAddress] {
		t.Fatal("empty update clobbered address")
	}
	if p[fieldEmail] != "new@x" {
		t.Fatal("email not updated")
	}
}

// TestStoredFieldsOwnTheirBytes: Handle reads its request in place, so
// what a verb stores of it is a copy — the caller refills the buffer (a
// lane's request slot) as soon as Handle returns.
func TestStoredFieldsOwnTheirBytes(t *testing.T) {
	db := New()
	scribble := func(req []byte) {
		for i := range req {
			req[i] = '#'
		}
	}
	req := []byte("ADDPAYEE 42 Acme_Corp P-77")
	db.Handle(req)
	scribble(req)
	if payees := lines(t, handle(db, "PAYEES 42")); payees[len(payees)-1] != "Acme_Corp|P-77" {
		t.Fatalf("stored payee after the request buffer was overwritten: %q", payees)
	}
	req = []byte("POSTPROFILE 42 email=a@b.example city=Provo_UT")
	db.Handle(req)
	scribble(req)
	if p := lines(t, handle(db, "PROFILE 42")); p[fieldEmail] != "a@b.example" || p[fieldCity] != "Provo_UT" {
		t.Fatalf("stored profile after the request buffer was overwritten: %q", p)
	}
}

// writeVerbs are the verbs that may change what the database stores:
// the five writes, and BILLS, which records that it showed the seeded
// history.
var writeVerbs = map[string]bool{"ADDPAYEE": true, "BILLPAY": true, "TRANSFER": true, "PLACEORDER": true, "POSTPROFILE": true, "BILLS": true}

// FuzzHandle: no request line panics or answers beyond the response
// slot, and every other line than a write leaves the stored state as it
// was and answers as a fresh database does.
func FuzzHandle(f *testing.F) {
	for _, seed := range []string{
		"PING", "AUTH 1001 " + PasswordFor(1001), "AUTH 3 pw", "PROFILE 3", "SUMMARY 5", "ACCTS 5",
		"TXNS 5 1 40", "PAYEES 5", "CHECKINFO 5 1234", "ORDERCHECK 5 premium 1000",
		"ADDPAYEE 5 Acme P-1", "BILLPAY 5 Acme 1500 2009-05-05", "BILLS 5 20",
		"TRANSFER 5 0 1 100", "PLACEORDER 5 standard 10", "POSTPROFILE 5 email=x@y city=",
		"", "BOGUS 1", "PROFILE -1", "TXNS 5 -1 3",
	} {
		f.Add(seed)
	}
	// A database with written state for users 1-8.
	written := func() *DB {
		db := New()
		for uid := 1; uid <= 8; uid++ {
			handle(db, "TRANSFER %d 0 1 100", uid)
			handle(db, "POSTPROFILE %d email=u%d@x", uid, uid)
			handle(db, "ADDPAYEE %d Co P-%d", uid, uid)
			handle(db, "BILLPAY %d Co 100 2009-01-01", uid)
			handle(db, "PLACEORDER %d standard %d", uid, uid)
		}
		return db
	}
	f.Fuzz(func(t *testing.T, line string) {
		req := []byte(line)
		db := written()
		before := snapshot(db)
		resp := string(db.Handle(req))
		if len(resp) > ResponseSlot {
			t.Fatalf("%q: %d-byte response", line, len(resp))
		}
		fields := strings.Fields(line)
		if len(fields) > 0 && writeVerbs[fields[0]] {
			return
		}
		if snapshot(db) != before {
			t.Fatalf("%q changed the stored state", line)
		}
		fresh := New()
		got := string(fresh.Handle(req))
		if stored(fresh) != 0 {
			t.Fatalf("%q stored %d entries in a fresh database", line, stored(fresh))
		}
		if len(fields) > 1 {
			if uid, err := strconv.ParseUint(fields[1], 10, 64); err == nil && uid >= 1 && uid <= 8 {
				return // a user with written state answers from it
			}
		}
		if got != resp {
			t.Fatalf("%q: fresh database answered %q, written one %q", line, got, resp)
		}
	})
}
