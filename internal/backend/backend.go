// Package backend implements the SPECWeb2009 Besim-equivalent banking
// database Rhythm's process stages query. Process stages emit fixed-size
// textual request strings (the paper allocates 1 KB per backend request)
// and receive textual responses (4 KB slots). The store is in-memory and
// deterministic: every customer's profile, accounts, payees, statement
// lines and bill history are synthesized from a hash of the user id, so
// read paths are pure — a read renders the synthesized fields straight
// into the response and keeps nothing — and the maps hold only what a
// write (a transfer, a profile update, a new payee, a bill payment) made,
// and of that only what a page can show, for the life of the process.
// This matches how the paper emulates "the requisite backend
// throughput" with host threads or an on-device backend (§5.3.2).
package backend

import (
	"bytes"
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

// DB is the banking database. Reads may run concurrently with reads —
// Handle calls for which Reads is true change nothing, so any number of
// them may run at once — but a write must run alone: Rhythm commits a
// cohort's writes in lane order, behind the shard group's lock in the
// cluster (and models backend parallelism with service-time slots at
// the platform layer).
//
// Its maps hold written state only: a write materializes the
// synthesized entity it changes and stores it, and a read of that user
// from then on renders the stored entity. The one fact a read records
// is that a BILLS read showed a user the seeded bill history, since a
// later payment's confirmation id counts those lines. A user's stored
// state is bounded by what a page shows: maxPayees payees and the
// latest maxBills bill lines, so a user seen again and again stops
// growing it. A check order stores nothing: no reply reads it.
type DB struct {
	profiles map[uint64]*profile
	accounts map[uint64][]account
	payees   map[uint64][]byte // wire rows, "name|account" a line
	bills    map[uint64]billHistory
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
		payees:   make(map[uint64][]byte),
		bills:    make(map[uint64]billHistory),
	}
}

// SetWriteHook registers fn to run after every committed state
// mutation (AddPayee, Transfer, PayBill, UpdateProfile) with the user
// id whose state changed.
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

// defaultPayees is how many payees a user starts with; maxPayees is
// how many a user keeps: the most any page lists (post_payee's table).
// Pages list payees oldest first, so a payee added past maxPayees would
// never show, and is not stored.
const (
	defaultPayees = 3
	maxPayees     = 16
)

// synthPayee returns default payee i of uid: its name and the six
// digits of its account, "P-" and the digits.
func synthPayee(uid uint64, i int) (name string, account uint64) {
	h := mix(uid^0xbee) >> (8 * i)
	return merchants[h%12], h % 1000000
}

// appendPayees appends the wire rows of the user's payees, "name|account"
// a line: the stored ones if an AddPayee made them, else the defaults.
func (db *DB) appendPayees(b []byte, uid uint64) []byte {
	if rows, ok := db.payees[uid]; ok {
		return append(b, rows...)
	}
	for i := 0; i < defaultPayees; i++ {
		name, acct := synthPayee(uid, i)
		b = fmtx.Appendf(b, "%s|P-%06d\n", name, acct)
	}
	return b
}

// AddPayee registers a new payee after the user's existing ones, unless
// the user already has maxPayees.
func (db *DB) AddPayee(uid uint64, name, account string) {
	rows, ok := db.payees[uid]
	if !ok {
		rows = db.appendPayees(nil, uid)
	}
	if bytes.Count(rows, []byte("\n")) < maxPayees {
		rows = append(append(append(append(rows, name...), '|'), account...), '\n')
	}
	db.payees[uid] = rows
	db.noteWrite(uid)
}

// billHistory is a user's bill payments, oldest first: the seeded lines
// when a BILLS read showed them before the first payment, then the
// payments PayBill recorded. It counts every payment and keeps the
// latest maxBills lines, all that a BILLS read can show.
type billHistory struct {
	seeds  int // 0, or seededBills
	paid   int
	latest []string // the last min(paid, maxBills) payments
}

// seededBills is how many synthesized lines a seeded history starts
// with; maxBills is the most lines a BILLS read asks for.
const (
	seededBills = 6
	maxBills    = 20
)

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
	conf := fmtx.Sprintf("BP-%08x", uint32(mix(uid^uint64(h.seeds+h.paid)^0xb111)))
	line := fmtx.Sprintf("%s|%s|%d|%s", conf, payee, cents, date)
	if len(h.latest) == maxBills {
		copy(h.latest, h.latest[1:])
		h.latest[maxBills-1] = line
	} else {
		h.latest = append(h.latest, line)
	}
	h.paid++
	db.bills[uid] = h
	db.noteWrite(uid)
	return conf
}

// appendBills appends up to n (at most maxBills) lines of the user's
// bill history, most recent first, one a line. A user with no history
// is shown the seeded one so status pages are never empty, and the
// history records that.
func (db *DB) appendBills(b []byte, uid uint64, n int) []byte {
	h, ok := db.bills[uid]
	if !ok {
		h.seeds = seededBills
		db.bills[uid] = h
	}
	total := h.seeds + h.paid
	kept := total - len(h.latest) // lines before the kept payments
	for i := total - 1; i >= max(0, total-min(n, maxBills)); i-- {
		switch {
		case i >= kept:
			b = append(b, h.latest[i-kept]...)
		case i < h.seeds:
			b = appendSeedBill(b, uid, i)
		default:
			return b
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
// It stores nothing and fires no write hook: no reply renders a placed
// order, so no page a user has seen changes with it.
func (db *DB) PlaceOrder(uid uint64, orderID string) string {
	return "OK-" + orderID
}

// appendCheckInfo appends the cleared check's date, amount and payee,
// one a line, for the check-detail page.
func appendCheckInfo(b []byte, uid uint64, checkNo int) []byte {
	h := mix(uid ^ uint64(checkNo)<<20 ^ 0xcafe)
	return fmtx.Appendf(b, "2009-%02d-%02d\n%d\n%s\n", 1+(h>>4)%12, 1+(h>>12)%28, int64(h%500_00), merchants[(h>>24)%12])
}

// Handle processes one wire-format backend request (the live bytes of
// the slot a process stage wrote, which Handle reads but never keeps)
// and appends the wire-format response to dst. Past the response it
// leaves dst's spare capacity zero or as it was.
// The textual protocol is line-oriented: "VERB arg1 arg2 ...".
// Unknown verbs or malformed arguments produce "ERR <reason>" rather than
// an error: the device-side stage renders backend errors into the page,
// matching Rhythm's per-request error state (§4.4).
func (db *DB) Handle(dst, req []byte) []byte {
	// The fields alias req, so what a verb stores of them (a payee's
	// name) it copies.
	var fields [5]string
	n := fmtx.Fields(fields[:], req)
	if n == 0 {
		return append(dst, "ERR empty"...)
	}
	resp := db.dispatch(dst, fields[:min(n, len(fields))], req)
	if len(resp)-len(dst) > ResponseSlot {
		// dispatch wrote into dst's spare capacity before the response
		// outgrew it.
		clear(dst[len(dst):cap(dst)])
		return append(dst, "ERR response overflow"...)
	}
	return resp
}

// Reads implements service.Backend: the verbs whose Handle stores
// nothing and fires no write hook. PLACEORDER is one: it prices and
// confirms an order and keeps none. BILLS is not: a user's first BILLS
// seeds the bill history a later payment's confirmation counts.
func (db *DB) Reads(req []byte) bool {
	var verb [1]string
	fmtx.Fields(verb[:], req)
	switch verb[0] {
	case "PING", "AUTH", "PROFILE", "SUMMARY", "ACCTS", "TXNS", "PAYEES", "CHECKINFO", "ORDERCHECK", "PLACEORDER":
		return true
	}
	return false
}

// reply appends a reply that carries no data — a failure's, or PING's
// — to dst. Every one is longer than the "OK\n" a verb appends before it
// may fail, so it covers that.
func reply(dst []byte, parts ...string) []byte {
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
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
// verbs read) are f, and appends its response to dst.
func (db *DB) dispatch(dst []byte, f []string, req []byte) []byte {
	// Every verb but PING names a uid second.
	var uid uint64
	if f[0] != "PING" {
		if len(f) < 2 {
			return reply(dst, "ERR missing uid")
		}
		var ok bool
		if uid, ok = parseUint(f[1]); !ok {
			return strconv.AppendQuote(append(dst, "ERR bad uid "...), f[1])
		}
	}
	b := append(dst, "OK\n"...)
	switch f[0] {
	case "PING":
		return reply(dst, "PONG")
	case "AUTH":
		if len(f) < 3 {
			return reply(dst, "ERR args")
		}
		var pw [10]byte
		if string(appendPassword(pw[:0], uid)) != f[2] {
			return reply(dst, "FAIL bad credentials")
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
			return reply(dst, "ERR args")
		}
		acct := int(parseInt(f[2]))
		n := int(parseInt(f[3]))
		if n <= 0 || n > 40 {
			return reply(dst, "ERR txn count")
		}
		b = appendTxns(b, uid, acct, n)
	case "PAYEES":
		b = db.appendPayees(b, uid)
	case "ADDPAYEE":
		if len(f) < 4 {
			return reply(dst, "ERR args")
		}
		db.AddPayee(uid, f[2], f[3])
		b = db.appendPayees(b, uid)
	case "BILLPAY":
		if len(f) < 5 {
			return reply(dst, "ERR args")
		}
		cents := parseInt(f[3])
		conf := db.PayBill(uid, f[2], cents, f[4])
		b = fmtx.Appendf(b, "%s\n", conf)
	case "BILLS":
		if len(f) < 3 {
			return reply(dst, "ERR args")
		}
		n := int(parseInt(f[2]))
		if n <= 0 || n > maxBills {
			return reply(dst, "ERR count")
		}
		b = db.appendBills(b, uid, n)
	case "TRANSFER":
		if len(f) < 5 {
			return reply(dst, "ERR args")
		}
		from := int(parseInt(f[2]))
		to := int(parseInt(f[3]))
		cents := parseInt(f[4])
		fb, tb, err := db.Transfer(uid, from, to, cents)
		if errors.Is(err, errBadAccount) {
			return fmtx.Appendf(dst, "FAIL %s %d->%d", err.Error(), from, to)
		}
		if err != nil {
			return reply(dst, "FAIL ", err.Error())
		}
		b = fmtx.Appendf(b, "%d\n%d\n", fb, tb)
	case "CHECKINFO":
		if len(f) < 3 {
			return reply(dst, "ERR args")
		}
		cn := int(parseInt(f[2]))
		b = appendCheckInfo(b, uid, cn)
	case "ORDERCHECK":
		if len(f) < 4 {
			return reply(dst, "ERR args")
		}
		qty := int(parseInt(f[3]))
		if qty <= 0 || qty > 1000 {
			return reply(dst, "ERR qty")
		}
		id, price := orderCheck(uid, f[2], qty)
		b = fmtx.Appendf(b, "CO-%08x\n%d\n", id, price)
	case "PLACEORDER":
		// Prices and places the order in one round trip so the
		// place_check_order page needs a single backend request
		// (Table 2).
		if len(f) < 4 {
			return reply(dst, "ERR args")
		}
		qty := int(parseInt(f[3]))
		if qty <= 0 || qty > 1000 {
			return reply(dst, "ERR qty")
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
		return reply(dst, "ERR unknown verb ", f[0])
	}
	return b
}
