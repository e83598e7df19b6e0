// Package backend implements the SPECWeb2009 Besim-equivalent banking
// database Rhythm's process stages query. Process stages emit fixed-size
// textual request strings (the paper allocates 1 KB per backend request)
// and receive textual responses (4 KB slots). The store is in-memory and
// deterministic: every customer's profile, accounts, payees, statement
// lines and bill history are synthesized from a hash of the user id, so
// read paths are pure — a read renders the synthesized fields straight
// into the response and keeps nothing — and the maps hold only what a
// write (a transfer, a profile update, a new payee, a bill payment, an
// order) made, for the life of the process. This matches how the paper
// emulates "the requisite backend throughput" with host threads or an
// on-device backend (§5.3.2).
package backend

import (
	"errors"
	"math"
	"slices"
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

// DB is the banking database. It is not safe for concurrent use; Rhythm
// drives it from the single-threaded event loop (and models backend
// parallelism with service-time slots at the platform layer).
//
// Its maps hold written state only: a write materializes the
// synthesized entity it changes and stores it, and a read of that user
// from then on renders the stored entity. The one fact a read records
// is that a BILLS read showed a user the seeded bill history, since a
// later payment's confirmation id counts those lines.
type DB struct {
	profiles map[uint64]*profile
	accounts map[uint64][]account
	payees   map[uint64][]payee
	orders   map[uint64][]string
	bills    map[uint64]billHistory
	requests uint64
	// resp is Handle's response buffer, reused by the next Handle.
	resp []byte
	// writeHook, when set, is invoked with the affected user id after a
	// state mutation commits. The Besim deferred-write replay drives the
	// same mutator methods, so one hook covers both the host path and
	// device-kernel deferred writes; the render cache uses it to bump the
	// user's state version. Reads are pure and never fire it: they never
	// change what a page would render.
	writeHook func(uid uint64)
}

// New returns an empty database.
func New() *DB {
	return &DB{
		profiles: make(map[uint64]*profile),
		accounts: make(map[uint64][]account),
		payees:   make(map[uint64][]payee),
		orders:   make(map[uint64][]string),
		bills:    make(map[uint64]billHistory),
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
	return string(appendPassword(nil, uid))
}

// appendPassword appends uid's password, ten bytes.
func appendPassword(b []byte, uid uint64) []byte {
	return fmtx.Appendf(b, "pw%08x", uint32(mix(uid^0x77)))
}

// The fields of a customer profile, in the order PROFILE renders them.
const (
	fieldName = iota
	fieldAddress
	fieldCity
	fieldEmail
	fieldPhone
	numFields
)

// profile is a customer record an UpdateProfile stored, by field.
type profile [numFields]string

// appendSynthField appends field f of uid's synthesized profile.
func appendSynthField(b []byte, uid uint64, f int) []byte {
	h := mix(uid)
	switch f {
	case fieldName:
		b = append(b, firstNames[h%16]...)
		b = append(b, ' ')
		return append(b, lastNames[(h>>4)%16]...)
	case fieldAddress:
		return fmtx.Appendf(b, "%d %s", 100+(h>>8)%900, streets[(h>>16)%8])
	case fieldCity:
		return append(b, cities[(h>>20)%8]...)
	case fieldEmail:
		return fmtx.Appendf(b, "user%d@specbank.example", uid)
	}
	return fmtx.Appendf(b, "(%03d) 555-%04d", 200+(h>>24)%800, h%10000)
}

// appendFields appends uid's profile fields fs, one a line: p's if an
// UpdateProfile stored it (p non-nil), else the synthesized ones.
func appendFields(b []byte, p *profile, uid uint64, fs ...int) []byte {
	for _, f := range fs {
		if p != nil {
			b = append(b, p[f]...)
		} else {
			b = appendSynthField(b, uid, f)
		}
		b = append(b, '\n')
	}
	return b
}

// updatable maps the keys a POSTPROFILE may set to their fields.
var updatable = map[string]int{"address": fieldAddress, "city": fieldCity, "email": fieldEmail, "phone": fieldPhone}

// UpdateProfile applies field=value updates (address, city, email,
// phone; an empty value changes nothing) to the user's profile.
func (db *DB) UpdateProfile(uid uint64, fields map[string]string) {
	p, ok := db.profiles[uid]
	if !ok {
		p = new(profile)
		for f := range p {
			p[f] = string(appendSynthField(nil, uid, f))
		}
		db.profiles[uid] = p
	}
	for key, v := range fields {
		if f, ok := updatable[key]; ok && v != "" {
			p[f] = v
		}
	}
	db.noteWrite(uid)
}

// account is one bank account. Account i is checking when i is even,
// savings when odd, and numbered 1000+i, a dash, then serial.
type account struct {
	serial  uint32 // eight digits
	balance int64  // cents
}

// accountsOf returns the user's accounts: the stored ones if a Transfer
// made them, else the 2-4 synthesized ones appended to buf.
func (db *DB) accountsOf(uid uint64, buf []account) []account {
	if a, ok := db.accounts[uid]; ok {
		return a
	}
	n := 2 + int(mix(uid^0xacc)%3)
	for i := 0; i < n; i++ {
		hi := mix(uid ^ uint64(i)<<8 ^ 0xacc)
		buf = append(buf, account{serial: uint32(hi) % 100000000, balance: int64(hi%5_000_00) + 100_00})
	}
	return buf
}

// appendAccounts appends the wire rows of the user's accounts,
// "number|kind|balance".
func (db *DB) appendAccounts(b []byte, uid uint64) []byte {
	var buf [4]account
	for i, a := range db.accountsOf(uid, buf[:0]) {
		kind := "checking"
		if i%2 == 1 {
			kind = "savings"
		}
		b = fmtx.Appendf(b, "%04d-%08d|%s|%d\n", 1000+i, a.serial, kind, a.balance)
	}
	return b
}

// Transfer's failures, one value each so that failing allocates
// nothing.
var (
	errBadAccount        = errors.New("backend: bad account index")
	errInsufficientFunds = errors.New("backend: insufficient funds")
)

// Transfer moves cents between two of the user's accounts, returning the
// new balances. It fails on bad indexes or insufficient funds, and then
// stores nothing.
func (db *DB) Transfer(uid uint64, from, to int, cents int64) (fromBal, toBal int64, err error) {
	var buf [4]account
	accts := db.accountsOf(uid, buf[:0])
	if from < 0 || from >= len(accts) || to < 0 || to >= len(accts) || from == to {
		return 0, 0, errBadAccount
	}
	if cents <= 0 || accts[from].balance < cents {
		return 0, 0, errInsufficientFunds
	}
	// The stored slice is a variable of its own: were it accts, buf
	// would escape, and a failing transfer would allocate it.
	stored, ok := db.accounts[uid]
	if !ok {
		stored = slices.Clone(accts)
		db.accounts[uid] = stored
	}
	stored[from].balance -= cents
	stored[to].balance += cents
	db.noteWrite(uid)
	return stored[from].balance, stored[to].balance, nil
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

// payee is a registered bill-pay target.
type payee struct {
	name, account string
}

// defaultPayees is how many payees a user starts with.
const defaultPayees = 3

// synthPayee returns default payee i of uid: its name and the six
// digits of its account, "P-" and the digits.
func synthPayee(uid uint64, i int) (name string, account uint64) {
	h := mix(uid^0xbee) >> (8 * i)
	return merchants[h%12], h % 1000000
}

// appendPayees appends the wire rows of the user's payees, "name|account":
// the stored ones if an AddPayee made them, else the defaults.
func (db *DB) appendPayees(b []byte, uid uint64) []byte {
	if ps, ok := db.payees[uid]; ok {
		for _, p := range ps {
			b = fmtx.Appendf(b, "%s|%s\n", p.name, p.account)
		}
		return b
	}
	for i := 0; i < defaultPayees; i++ {
		name, acct := synthPayee(uid, i)
		b = fmtx.Appendf(b, "%s|P-%06d\n", name, acct)
	}
	return b
}

// AddPayee registers a new payee after the user's existing ones.
func (db *DB) AddPayee(uid uint64, name, account string) {
	ps, ok := db.payees[uid]
	if !ok {
		ps = make([]payee, defaultPayees, defaultPayees+1)
		for i := range ps {
			n, acct := synthPayee(uid, i)
			ps[i] = payee{n, fmtx.Sprintf("P-%06d", acct)}
		}
	}
	db.payees[uid] = append(ps, payee{name, account})
	db.noteWrite(uid)
}

// billHistory is a user's bill payments, oldest first: the seeded lines
// when a BILLS read showed them before the first payment, then the
// payments PayBill recorded.
type billHistory struct {
	seeds int // 0, or seededBills
	paid  []string
}

// seededBills is how many synthesized lines a seeded history starts with.
const seededBills = 6

// appendSeedBill appends seeded bill line i of uid.
func appendSeedBill(b []byte, uid uint64, i int) []byte {
	h := mix(uid ^ uint64(i)<<24 ^ 0xb111)
	return fmtx.Appendf(b, "BP-%08x|%s|%d|2009-%02d-%02d",
		uint32(h), merchants[h%12], 10_00+h%300_00, 1+(h>>8)%12, 1+(h>>16)%28)
}

// PayBill records a bill payment and returns a confirmation id, which
// counts the lines of the history before it.
func (db *DB) PayBill(uid uint64, payee string, cents int64, date string) string {
	h := db.bills[uid]
	conf := fmtx.Sprintf("BP-%08x", uint32(mix(uid^uint64(h.seeds+len(h.paid))^0xb111)))
	h.paid = append(h.paid, fmtx.Sprintf("%s|%s|%d|%s", conf, payee, cents, date))
	db.bills[uid] = h
	db.noteWrite(uid)
	return conf
}

// appendBills appends up to n lines of the user's bill history, most
// recent first, one a line. A user with no history is shown the seeded
// one so status pages are never empty, and the history records that.
func (db *DB) appendBills(b []byte, uid uint64, n int) []byte {
	h, ok := db.bills[uid]
	if !ok {
		h.seeds = seededBills
		db.bills[uid] = h
	}
	total := h.seeds + len(h.paid)
	for i := total - 1; i >= max(0, total-n); i-- {
		if i < h.seeds {
			b = appendSeedBill(b, uid, i)
		} else {
			b = append(b, h.paid[i-h.seeds]...)
		}
		b = append(b, '\n')
	}
	return b
}

// orderCheck prices a check order: its id's eight hex digits and its
// price in cents.
func orderCheck(uid uint64, style string, qty int) (id uint32, price int64) {
	price = int64(qty) * 45 // 45¢ per check
	if style == "premium" {
		price *= 2
	}
	return uint32(mix(uid ^ uint64(qty)<<16 ^ 0xc4ec)), price
}

// PlaceOrder finalizes a check order, returning a confirmation string.
func (db *DB) PlaceOrder(uid uint64, orderID string) string {
	conf := "OK-" + orderID
	db.orders[uid] = append(db.orders[uid], orderID)
	db.noteWrite(uid)
	return conf
}

// appendCheckInfo appends the cleared check's date, amount and payee,
// one a line, for the check-detail page.
func appendCheckInfo(b []byte, uid uint64, checkNo int) []byte {
	h := mix(uid ^ uint64(checkNo)<<20 ^ 0xcafe)
	return fmtx.Appendf(b, "2009-%02d-%02d\n%d\n%s\n", 1+(h>>4)%12, 1+(h>>12)%28, int64(h%500_00), merchants[(h>>24)%12])
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
		return db.reply("ERR empty")
	}
	resp := db.dispatch(fields[:min(n, len(fields))], req)
	if len(resp) > ResponseSlot {
		return db.reply("ERR response overflow")
	}
	return resp
}

// reply writes a reply that carries no data — a failure's, or PING's —
// into the response buffer, where like every other it is valid until the
// next Handle.
func (db *DB) reply(parts ...string) []byte {
	b := db.resp[:0]
	for _, p := range parts {
		b = append(b, p...)
	}
	db.resp = b
	return b
}

// parseUint is strconv.ParseUint(s, 10, 64) with ok in place of the
// error, whose *strconv.NumError allocates: on a syntax error it returns
// 0, on overflow the largest uint64, as ParseUint does.
func parseUint(s string) (n uint64, ok bool) {
	if s == "" {
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		if n > (math.MaxUint64-uint64(d))/10 {
			return math.MaxUint64, false
		}
		n = n*10 + uint64(d)
	}
	return n, true
}

// parseInt is what strconv.ParseInt(s, 10, 64) returns beside its error
// — 0 on a syntax error, the bound on overflow — for the numbers a verb
// reads and does not check, without the error's allocation.
func parseInt(s string) int64 {
	neg := s != "" && s[0] == '-'
	if s != "" && (s[0] == '-' || s[0] == '+') {
		s = s[1:]
	}
	u, ok := parseUint(s)
	switch {
	case !ok && u == 0:
		return 0
	case neg && u >= 1<<63:
		return math.MinInt64
	case neg:
		return -int64(u)
	case u > math.MaxInt64:
		return math.MaxInt64
	}
	return int64(u)
}

// dispatch runs the verb of req, whose first fields (as many as the
// verbs read) are f.
func (db *DB) dispatch(f []string, req []byte) []byte {
	// Every verb but PING names a uid second.
	var uid uint64
	if f[0] != "PING" {
		if len(f) < 2 {
			return db.reply("ERR missing uid")
		}
		var ok bool
		if uid, ok = parseUint(f[1]); !ok {
			db.resp = strconv.AppendQuote(append(db.resp[:0], "ERR bad uid "...), f[1])
			return db.resp
		}
	}
	b := append(db.resp[:0], "OK\n"...)
	switch f[0] {
	case "PING":
		return db.reply("PONG")
	case "AUTH":
		if len(f) < 3 {
			return db.reply("ERR args")
		}
		var pw [10]byte
		if string(appendPassword(pw[:0], uid)) != f[2] {
			return db.reply("FAIL bad credentials")
		}
		b = appendFields(b, db.profiles[uid], uid, fieldName, fieldEmail, fieldPhone)
		b = db.appendAccounts(b, uid)
	case "PROFILE":
		b = appendFields(b, db.profiles[uid], uid, fieldName, fieldAddress, fieldCity, fieldEmail, fieldPhone)
	case "SUMMARY":
		// Combined accounts + recent activity: account_summary needs both
		// in its single backend round trip (Table 2: 1 backend request).
		b = db.appendAccounts(b, uid)
		b = append(b, "--\n"...)
		b = appendTxns(b, uid, 0, 20)
	case "ACCTS":
		b = db.appendAccounts(b, uid)
	case "TXNS":
		if len(f) < 4 {
			return db.reply("ERR args")
		}
		acct := int(parseInt(f[2]))
		n := int(parseInt(f[3]))
		if n <= 0 || n > 40 {
			return db.reply("ERR txn count")
		}
		b = appendTxns(b, uid, acct, n)
	case "PAYEES":
		b = db.appendPayees(b, uid)
	case "ADDPAYEE":
		if len(f) < 4 {
			return db.reply("ERR args")
		}
		db.AddPayee(uid, strings.Clone(f[2]), strings.Clone(f[3]))
		b = db.appendPayees(b, uid)
	case "BILLPAY":
		if len(f) < 5 {
			return db.reply("ERR args")
		}
		cents := parseInt(f[3])
		conf := db.PayBill(uid, f[2], cents, f[4])
		b = fmtx.Appendf(b, "%s\n", conf)
	case "BILLS":
		if len(f) < 3 {
			return db.reply("ERR args")
		}
		n := int(parseInt(f[2]))
		if n <= 0 || n > 20 {
			return db.reply("ERR count")
		}
		b = db.appendBills(b, uid, n)
	case "TRANSFER":
		if len(f) < 5 {
			return db.reply("ERR args")
		}
		from := int(parseInt(f[2]))
		to := int(parseInt(f[3]))
		cents := parseInt(f[4])
		fb, tb, err := db.Transfer(uid, from, to, cents)
		if errors.Is(err, errBadAccount) {
			db.resp = fmtx.Appendf(db.resp[:0], "FAIL %s %d->%d", err.Error(), from, to)
			return db.resp
		}
		if err != nil {
			return db.reply("FAIL ", err.Error())
		}
		b = fmtx.Appendf(b, "%d\n%d\n", fb, tb)
	case "CHECKINFO":
		if len(f) < 3 {
			return db.reply("ERR args")
		}
		cn := int(parseInt(f[2]))
		b = appendCheckInfo(b, uid, cn)
	case "ORDERCHECK":
		if len(f) < 4 {
			return db.reply("ERR args")
		}
		qty := int(parseInt(f[3]))
		if qty <= 0 || qty > 1000 {
			return db.reply("ERR qty")
		}
		id, price := orderCheck(uid, f[2], qty)
		b = fmtx.Appendf(b, "CO-%08x\n%d\n", id, price)
	case "PLACEORDER":
		// Prices and places the order in one round trip so the
		// place_check_order page needs a single backend request
		// (Table 2).
		if len(f) < 4 {
			return db.reply("ERR args")
		}
		qty := int(parseInt(f[3]))
		if qty <= 0 || qty > 1000 {
			return db.reply("ERR qty")
		}
		n, price := orderCheck(uid, f[2], qty)
		id := fmtx.Sprintf("CO-%08x", n)
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
		db.UpdateProfile(uid, fields)
		b = appendFields(b, db.profiles[uid], uid, fieldName, fieldAddress, fieldCity, fieldEmail, fieldPhone)
	default:
		return db.reply("ERR unknown verb ", f[0])
	}
	db.resp = b
	return b
}
