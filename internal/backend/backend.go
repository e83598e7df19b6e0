// Package backend implements the SPECWeb2009 Besim-equivalent banking
// database Rhythm's process stages query. Process stages emit fixed-size
// textual request strings (the paper allocates 1 KB per backend request)
// and receive textual responses (4 KB slots). The store is in-memory and
// deterministic: read-mostly entities (profiles, accounts, transactions)
// are synthesized from a hash of the user id on first touch, and writes
// (payees, transfers, orders) persist for the life of the process —
// matching how the paper emulates "the requisite backend throughput"
// with host threads or an on-device backend (§5.3.2).
package backend

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"rhythm/internal/fmtx"
)

// Slot sizes from the paper (§5.1): 1 KB backend requests, 4 KB backend
// responses.
const (
	RequestSlot  = 1024
	ResponseSlot = 4096
)

// Profile is a customer record.
type Profile struct {
	UserID   uint64
	Name     string
	Address  string
	City     string
	Email    string
	Phone    string
	Password string
}

// Account is one bank account of a customer.
type Account struct {
	Number  string
	Kind    string // "checking" or "savings"
	Balance int64  // cents
}

// Payee is a registered bill-pay target.
type Payee struct {
	Name    string
	Account string
}

// DB is the banking database. It is not safe for concurrent use; Rhythm
// drives it from the single-threaded event loop (and models backend
// parallelism with service-time slots at the platform layer).
type DB struct {
	profiles map[uint64]*Profile
	accounts map[uint64][]Account
	payees   map[uint64][]Payee
	orders   map[uint64][]string
	bills    map[uint64][]string
	requests uint64
	// resp is Handle's response buffer, reused by the next Handle.
	resp []byte
	// writeHook, when set, is invoked with the affected user id after a
	// state mutation commits. The Besim deferred-write replay drives the
	// same mutator methods, so one hook covers both the host path and
	// device-kernel deferred writes; the render cache uses it to bump the
	// user's state version. First-touch synthesis is deterministic and
	// does not fire the hook — it never changes what a page would render.
	writeHook func(uid uint64)
}

// New returns an empty database.
func New() *DB {
	return &DB{
		profiles: make(map[uint64]*Profile),
		accounts: make(map[uint64][]Account),
		payees:   make(map[uint64][]Payee),
		orders:   make(map[uint64][]string),
		bills:    make(map[uint64][]string),
	}
}

// Requests reports how many backend requests have been handled.
func (db *DB) Requests() uint64 { return db.requests }

// SetWriteHook registers fn to run after every committed state
// mutation (AddPayee, Transfer, PayBill, PlaceOrder, UpdateProfile)
// with the user id whose state changed.
func (db *DB) SetWriteHook(fn func(uid uint64)) { db.writeHook = fn }

func (db *DB) noteWrite(uid uint64) {
	if db.writeHook != nil {
		db.writeHook(uid)
	}
}

// mix is the splitmix64 finalizer, the deterministic seed for synthesized
// customer data.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

var (
	firstNames = []string{"Ada", "Bela", "Carl", "Dora", "Egon", "Faye", "Gus", "Hana", "Ivan", "Judy", "Kyle", "Lena", "Milo", "Nina", "Omar", "Page"}
	lastNames  = []string{"Archer", "Brook", "Chavez", "Duke", "Ellis", "Frost", "Garcia", "Hale", "Irwin", "Jones", "Klein", "Lowe", "Mason", "Nolan", "Owens", "Price"}
	streets    = []string{"Oak St", "Main St", "Hill Rd", "Park Ave", "Lake Dr", "Elm St", "Pine Ct", "Bay Blvd"}
	cities     = []string{"Durham NC", "Austin TX", "Provo UT", "Salem OR", "Tempe AZ", "Boise ID", "Salt Lake City UT", "Reno NV"}
	merchants  = []string{"Grocery Mart", "Metro Transit", "Book Nook", "Cafe Uno", "Gas&Go", "CinePlex", "Hardware Hub", "Garden World", "Tele Co", "Power Co", "Water Works", "Web Hosting"}
)

// PasswordFor derives the deterministic password a synthesized profile
// starts with. Workload generators use it to produce valid logins without
// a shared database handle (§5.3.1 random input generation).
func PasswordFor(uid uint64) string {
	return fmtx.Sprintf("pw%08x", uint32(mix(uid^0x77)))
}

// GetProfile returns (synthesizing on first touch) the profile for uid.
func (db *DB) GetProfile(uid uint64) *Profile {
	if p, ok := db.profiles[uid]; ok {
		return p
	}
	h := mix(uid)
	p := &Profile{
		UserID:   uid,
		Name:     firstNames[h%16] + " " + lastNames[(h>>4)%16],
		Address:  fmtx.Sprintf("%d %s", 100+(h>>8)%900, streets[(h>>16)%8]),
		City:     cities[(h>>20)%8],
		Email:    fmtx.Sprintf("user%d@specbank.example", uid),
		Phone:    fmtx.Sprintf("(%03d) 555-%04d", 200+(h>>24)%800, h%10000),
		Password: PasswordFor(uid),
	}
	db.profiles[uid] = p
	return p
}

// GetAccounts returns the customer's accounts, synthesizing 2-4 of them
// on first touch.
func (db *DB) GetAccounts(uid uint64) []Account {
	if a, ok := db.accounts[uid]; ok {
		return a
	}
	h := mix(uid ^ 0xacc)
	n := 2 + int(h%3)
	accts := make([]Account, n)
	for i := range accts {
		hi := mix(uid ^ uint64(i)<<8 ^ 0xacc)
		kind := "checking"
		if i%2 == 1 {
			kind = "savings"
		}
		accts[i] = Account{
			Number:  fmtx.Sprintf("%04d-%08d", 1000+i, uint32(hi)%100000000),
			Kind:    kind,
			Balance: int64(hi%5_000_00) + 100_00,
		}
	}
	db.accounts[uid] = accts
	return accts
}

// txn synthesizes statement line i of an account.
func txn(uid uint64, acct, i int) (month, day uint64, desc string, amt int64, checkN int) {
	h := mix(uid ^ uint64(acct)<<32 ^ uint64(i)<<16 ^ 0x7a7)
	amt = -int64(h % 200_00)
	if h%5 == 0 {
		amt = int64(h % 3000_00) // deposit
	} else if h%5 == 1 {
		checkN = 1000 + int(h%9000)
	}
	return 1 + (h>>8)%12, 1 + (h>>16)%28, merchants[(h>>24)%12], amt, checkN
}

// appendTxns appends the wire rows of an account's most recent n
// statement lines, "date|desc|amount|check".
func appendTxns(b []byte, uid uint64, acct, n int) []byte {
	for i := 0; i < n; i++ {
		month, day, desc, amt, checkN := txn(uid, acct, i)
		b = fmtx.Appendf(b, "2009-%02d-%02d|%s|%d|%d\n", month, day, desc, amt, checkN)
	}
	return b
}

// GetPayees returns registered payees (seeding 3 defaults on first touch).
func (db *DB) GetPayees(uid uint64) []Payee {
	if p, ok := db.payees[uid]; ok {
		return p
	}
	h := mix(uid ^ 0xbee)
	p := []Payee{
		{Name: merchants[h%12], Account: fmtx.Sprintf("P-%06d", h%1000000)},
		{Name: merchants[(h>>8)%12], Account: fmtx.Sprintf("P-%06d", (h>>8)%1000000)},
		{Name: merchants[(h>>16)%12], Account: fmtx.Sprintf("P-%06d", (h>>16)%1000000)},
	}
	db.payees[uid] = p
	return p
}

// AddPayee registers a new payee.
func (db *DB) AddPayee(uid uint64, name, account string) {
	db.payees[uid] = append(db.GetPayees(uid), Payee{Name: name, Account: account})
	db.noteWrite(uid)
}

// Auth verifies a password, returning the profile on success.
func (db *DB) Auth(uid uint64, password string) (*Profile, bool) {
	p := db.GetProfile(uid)
	return p, p.Password == password
}

// Transfer moves cents between two of the user's accounts, returning the
// new balances. It fails on bad indexes or insufficient funds.
func (db *DB) Transfer(uid uint64, from, to int, cents int64) (fromBal, toBal int64, err error) {
	accts := db.GetAccounts(uid)
	if from < 0 || from >= len(accts) || to < 0 || to >= len(accts) || from == to {
		return 0, 0, fmt.Errorf("backend: bad account index %d->%d", from, to)
	}
	if cents <= 0 || accts[from].Balance < cents {
		return 0, 0, errors.New("backend: insufficient funds")
	}
	accts[from].Balance -= cents
	accts[to].Balance += cents
	db.noteWrite(uid)
	return accts[from].Balance, accts[to].Balance, nil
}

// PayBill records a bill payment and returns a confirmation id.
func (db *DB) PayBill(uid uint64, payee string, cents int64, date string) string {
	conf := fmtx.Sprintf("BP-%08x", uint32(mix(uid^uint64(len(db.bills[uid]))^0xb111)))
	db.bills[uid] = append(db.bills[uid], fmtx.Sprintf("%s|%s|%d|%s", conf, payee, cents, date))
	db.noteWrite(uid)
	return conf
}

// Bills returns up to n recorded bill payments, most recent first,
// synthesizing history on first touch so status pages are never empty.
func (db *DB) Bills(uid uint64, n int) []string {
	if _, ok := db.bills[uid]; !ok {
		var seeded []string
		for i := 0; i < 6; i++ {
			h := mix(uid ^ uint64(i)<<24 ^ 0xb111)
			seeded = append(seeded, fmtx.Sprintf("BP-%08x|%s|%d|2009-%02d-%02d",
				uint32(h), merchants[h%12], 10_00+h%300_00, 1+(h>>8)%12, 1+(h>>16)%28))
		}
		db.bills[uid] = seeded
	}
	b := db.bills[uid]
	if len(b) > n {
		b = b[len(b)-n:]
	}
	out := make([]string, len(b))
	for i := range b {
		out[i] = b[len(b)-1-i]
	}
	return out
}

// OrderCheck prices a check order and returns (orderID, priceCents).
func (db *DB) OrderCheck(uid uint64, style string, qty int) (string, int64) {
	id := fmtx.Sprintf("CO-%08x", uint32(mix(uid^uint64(qty)<<16^0xc4ec)))
	price := int64(qty) * 45 // 45¢ per check
	if style == "premium" {
		price *= 2
	}
	return id, price
}

// PlaceOrder finalizes a check order, returning a confirmation string.
func (db *DB) PlaceOrder(uid uint64, orderID string) string {
	conf := "OK-" + orderID
	db.orders[uid] = append(db.orders[uid], orderID)
	db.noteWrite(uid)
	return conf
}

// UpdateProfile applies field=value updates and returns the profile.
func (db *DB) UpdateProfile(uid uint64, fields map[string]string) *Profile {
	p := db.GetProfile(uid)
	if v, ok := fields["address"]; ok && v != "" {
		p.Address = v
	}
	if v, ok := fields["city"]; ok && v != "" {
		p.City = v
	}
	if v, ok := fields["email"]; ok && v != "" {
		p.Email = v
	}
	if v, ok := fields["phone"]; ok && v != "" {
		p.Phone = v
	}
	db.noteWrite(uid)
	return p
}

// CheckImageMeta describes a cleared check for the check-detail page.
func (db *DB) CheckImageMeta(uid uint64, checkNo int) (date string, cents int64, payee string) {
	h := mix(uid ^ uint64(checkNo)<<20 ^ 0xcafe)
	return fmtx.Sprintf("2009-%02d-%02d", 1+(h>>4)%12, 1+(h>>12)%28),
		int64(h % 500_00), merchants[(h>>24)%12]
}

// Handle processes one wire-format backend request (the live bytes of
// the slot a process stage wrote, which Handle reads but never keeps)
// and returns the wire-format response, valid until the next Handle: it
// is built in a buffer the DB reuses.
// The textual protocol is line-oriented: "VERB arg1 arg2 ...".
// Unknown verbs or malformed arguments produce "ERR <reason>" rather than
// an error: the device-side stage renders backend errors into the page,
// matching Rhythm's per-request error state (§4.4).
func (db *DB) Handle(req []byte) []byte {
	db.requests++
	// The fields alias req, so what a verb stores of them (a payee's
	// name) it copies.
	var fields [5]string
	n := fmtx.Fields(fields[:], req)
	if n == 0 {
		return []byte("ERR empty")
	}
	resp := db.dispatch(fields[:min(n, len(fields))], req)
	if len(resp) > ResponseSlot {
		return []byte("ERR response overflow")
	}
	return resp
}

// dispatch runs the verb of req, whose first fields (as many as the
// verbs read) are f.
func (db *DB) dispatch(f []string, req []byte) []byte {
	uid, err := parseUID(f)
	if err != nil && f[0] != "PING" {
		return []byte("ERR " + err.Error())
	}
	b := append(db.resp[:0], "OK\n"...)
	switch f[0] {
	case "PING":
		return []byte("PONG")
	case "AUTH":
		if len(f) < 3 {
			return []byte("ERR args")
		}
		p, ok := db.Auth(uid, f[2])
		if !ok {
			return []byte("FAIL bad credentials")
		}
		b = fmtx.Appendf(b, "%s\n%s\n%s\n", p.Name, p.Email, p.Phone)
		b = appendAccounts(b, db.GetAccounts(uid))
	case "PROFILE":
		b = appendProfile(b, db.GetProfile(uid))
	case "SUMMARY":
		// Combined accounts + recent activity: account_summary needs both
		// in its single backend round trip (Table 2: 1 backend request).
		b = appendAccounts(b, db.GetAccounts(uid))
		b = append(b, "--\n"...)
		b = appendTxns(b, uid, 0, 20)
	case "ACCTS":
		b = appendAccounts(b, db.GetAccounts(uid))
	case "TXNS":
		if len(f) < 4 {
			return []byte("ERR args")
		}
		acct, _ := strconv.Atoi(f[2])
		n, _ := strconv.Atoi(f[3])
		if n <= 0 || n > 40 {
			return []byte("ERR txn count")
		}
		b = appendTxns(b, uid, acct, n)
	case "PAYEES":
		b = appendPayees(b, db.GetPayees(uid))
	case "ADDPAYEE":
		if len(f) < 4 {
			return []byte("ERR args")
		}
		db.AddPayee(uid, strings.Clone(f[2]), strings.Clone(f[3]))
		b = appendPayees(b, db.GetPayees(uid))
	case "BILLPAY":
		if len(f) < 5 {
			return []byte("ERR args")
		}
		cents, _ := strconv.ParseInt(f[3], 10, 64)
		conf := db.PayBill(uid, f[2], cents, f[4])
		b = fmtx.Appendf(b, "%s\n", conf)
	case "BILLS":
		if len(f) < 3 {
			return []byte("ERR args")
		}
		n, _ := strconv.Atoi(f[2])
		if n <= 0 || n > 20 {
			return []byte("ERR count")
		}
		for _, line := range db.Bills(uid, n) {
			b = fmtx.Appendf(b, "%s\n", line)
		}
	case "TRANSFER":
		if len(f) < 5 {
			return []byte("ERR args")
		}
		from, _ := strconv.Atoi(f[2])
		to, _ := strconv.Atoi(f[3])
		cents, _ := strconv.ParseInt(f[4], 10, 64)
		fb, tb, err := db.Transfer(uid, from, to, cents)
		if err != nil {
			return []byte("FAIL " + err.Error())
		}
		b = fmtx.Appendf(b, "%d\n%d\n", fb, tb)
	case "CHECKINFO":
		if len(f) < 3 {
			return []byte("ERR args")
		}
		cn, _ := strconv.Atoi(f[2])
		date, cents, payee := db.CheckImageMeta(uid, cn)
		b = fmtx.Appendf(b, "%s\n%d\n%s\n", date, cents, payee)
	case "ORDERCHECK":
		if len(f) < 4 {
			return []byte("ERR args")
		}
		qty, _ := strconv.Atoi(f[3])
		if qty <= 0 || qty > 1000 {
			return []byte("ERR qty")
		}
		id, price := db.OrderCheck(uid, f[2], qty)
		b = fmtx.Appendf(b, "%s\n%d\n", id, price)
	case "PLACEORDER":
		// Prices and places the order in one round trip so the
		// place_check_order page needs a single backend request
		// (Table 2).
		if len(f) < 4 {
			return []byte("ERR args")
		}
		qty, _ := strconv.Atoi(f[3])
		if qty <= 0 || qty > 1000 {
			return []byte("ERR qty")
		}
		id, price := db.OrderCheck(uid, f[2], qty)
		conf := db.PlaceOrder(uid, id)
		b = fmtx.Appendf(b, "%s\n%s\n%d\n", id, conf, price)
	case "POSTPROFILE":
		kvs := make([]string, fmtx.Fields(nil, req))
		fmtx.Fields(kvs, req)
		fields := map[string]string{}
		for _, kv := range kvs[2:] {
			if eq := strings.IndexByte(kv, '='); eq > 0 {
				fields[kv[:eq]] = strings.Clone(kv[eq+1:])
			}
		}
		b = appendProfile(b, db.UpdateProfile(uid, fields))
	default:
		return []byte("ERR unknown verb " + f[0])
	}
	db.resp = b
	return b
}

func appendAccounts(b []byte, accts []Account) []byte {
	for _, a := range accts {
		b = fmtx.Appendf(b, "%s|%s|%d\n", a.Number, a.Kind, a.Balance)
	}
	return b
}

func appendPayees(b []byte, payees []Payee) []byte {
	for _, p := range payees {
		b = fmtx.Appendf(b, "%s|%s\n", p.Name, p.Account)
	}
	return b
}

func appendProfile(b []byte, p *Profile) []byte {
	return fmtx.Appendf(b, "%s\n%s\n%s\n%s\n%s\n", p.Name, p.Address, p.City, p.Email, p.Phone)
}

func parseUID(f []string) (uint64, error) {
	if len(f) < 2 {
		return 0, errors.New("missing uid")
	}
	uid, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad uid %q", f[1])
	}
	return uid, nil
}
