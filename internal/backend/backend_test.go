package backend

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestProfileDeterministic(t *testing.T) {
	a, b := New(), New()
	p1 := a.GetProfile(12345)
	p2 := b.GetProfile(12345)
	if p1.Name != p2.Name || p1.Email != p2.Email || p1.Password != p2.Password {
		t.Fatalf("profiles differ across instances: %+v vs %+v", p1, p2)
	}
	if p1.Name == "" || p1.Address == "" {
		t.Fatalf("empty fields: %+v", p1)
	}
}

func TestAccountsShape(t *testing.T) {
	db := New()
	for uid := uint64(0); uid < 200; uid++ {
		accts := db.GetAccounts(uid)
		if len(accts) < 2 || len(accts) > 4 {
			t.Fatalf("uid %d: %d accounts", uid, len(accts))
		}
		for _, a := range accts {
			if a.Balance < 100_00 {
				t.Fatalf("uid %d: balance %d below floor", uid, a.Balance)
			}
		}
	}
}

func TestAuth(t *testing.T) {
	db := New()
	p := db.GetProfile(7)
	if _, ok := db.Auth(7, p.Password); !ok {
		t.Fatal("correct password rejected")
	}
	if _, ok := db.Auth(7, "wrong"); ok {
		t.Fatal("wrong password accepted")
	}
}

func TestTransferConservesMoney(t *testing.T) {
	db := New()
	uid := uint64(99)
	accts := db.GetAccounts(uid)
	total := accts[0].Balance + accts[1].Balance
	fb, tb, err := db.Transfer(uid, 0, 1, 500)
	if err != nil {
		t.Fatal(err)
	}
	if fb+tb != total {
		t.Fatalf("money not conserved: %d + %d != %d", fb, tb, total)
	}
	// persisted
	accts2 := db.GetAccounts(uid)
	if accts2[0].Balance != fb || accts2[1].Balance != tb {
		t.Fatal("transfer did not persist")
	}
}

func TestTransferErrors(t *testing.T) {
	db := New()
	if _, _, err := db.Transfer(1, 0, 0, 100); err == nil {
		t.Error("same-account transfer allowed")
	}
	if _, _, err := db.Transfer(1, 0, 9, 100); err == nil {
		t.Error("bad index allowed")
	}
	if _, _, err := db.Transfer(1, 0, 1, 1<<60); err == nil {
		t.Error("overdraft allowed")
	}
	if _, _, err := db.Transfer(1, 0, 1, -5); err == nil {
		t.Error("negative transfer allowed")
	}
}

func TestAddPayeePersists(t *testing.T) {
	db := New()
	base := len(db.GetPayees(5))
	db.AddPayee(5, "NewCo", "P-000001")
	got := db.GetPayees(5)
	if len(got) != base+1 || got[len(got)-1].Name != "NewCo" {
		t.Fatalf("payees = %+v", got)
	}
}

func TestBillsSeededAndAppended(t *testing.T) {
	db := New()
	seeded := db.Bills(11, 10)
	if len(seeded) == 0 {
		t.Fatal("no seeded bill history")
	}
	conf := db.PayBill(11, "Gas&Go", 2000, "2009-06-01")
	if !strings.HasPrefix(conf, "BP-") {
		t.Fatalf("confirmation %q", conf)
	}
	latest := db.Bills(11, 1)
	if !strings.HasPrefix(latest[0], conf) {
		t.Fatalf("latest bill %q does not match confirmation %q", latest[0], conf)
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
		{"TRANSFER 42 0 0 100", "FAIL"},
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
	p := db.GetProfile(1001)
	resp := string(db.Handle([]byte(fmt.Sprintf("AUTH 1001 %s", p.Password))))
	if !strings.HasPrefix(resp, "OK\n") || !strings.Contains(resp, p.Name) {
		t.Fatalf("AUTH response %q", resp)
	}
	if resp := string(db.Handle([]byte("AUTH 1001 nope"))); !strings.HasPrefix(resp, "FAIL") {
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
	_, std := db.OrderCheck(1, "standard", 100)
	_, prem := db.OrderCheck(1, "premium", 100)
	if prem != 2*std {
		t.Fatalf("premium %d != 2x standard %d", prem, std)
	}
}

func TestUpdateProfileIgnoresEmpty(t *testing.T) {
	db := New()
	before := db.GetProfile(3).Address
	db.UpdateProfile(3, map[string]string{"address": "", "email": "new@x"})
	p := db.GetProfile(3)
	if p.Address != before {
		t.Fatal("empty update clobbered address")
	}
	if p.Email != "new@x" {
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
	payees := db.GetPayees(42)
	if p := payees[len(payees)-1]; p.Name != "Acme_Corp" || p.Account != "P-77" {
		t.Fatalf("stored payee after the request buffer was overwritten: %+v", p)
	}
	req = []byte("POSTPROFILE 42 email=a@b.example city=Provo_UT")
	db.Handle(req)
	scribble(req)
	if p := db.GetProfile(42); p.Email != "a@b.example" || p.City != "Provo_UT" {
		t.Fatalf("stored profile after the request buffer was overwritten: %+v", p)
	}
}
