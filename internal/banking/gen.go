package banking

import (
	"fmt"
	"math/rand"
	"strings"

	"rhythm/internal/backend"
	"rhythm/internal/session"
)

// Generator produces SPECWeb-client request streams (§5.3.1): random
// user ids, valid credentials for logins, and live session identifiers
// drawn from the same session array the server consults — the paper
// "randomly generate[s] session identifiers and populate[s] the session
// array with random user ids" to test request types in isolation.
type Generator struct {
	rng      *rand.Rand
	sessions *session.Array
	sids     []session.ID
	nextUID  uint64
	// users holds every user drawn while a LimitUsers bound is set and
	// not yet reached; from then on draws pick among them.
	users []uint64
	limit int
}

// NewGenerator returns a deterministic generator bound to the server's
// session array.
func NewGenerator(seed int64, sessions *session.Array) *Generator {
	return &Generator{
		rng:      rand.New(rand.NewSource(seed)),
		sessions: sessions,
		nextUID:  1,
	}
}

// LimitUsers bounds the user population: the first n users drawn are
// fresh, as without a bound, and every later login and pool session
// reuses one of them, so what a backend stores per user stops growing
// with the run.
func (g *Generator) LimitUsers(n int) { g.limit = n }

// Populate pre-creates n live sessions with random user ids, emulating
// the paper's 16M active sessions at harness scale.
func (g *Generator) Populate(n int) {
	for i := 0; i < n; i++ {
		if !g.addSession() {
			panic("banking: session array exhausted while populating")
		}
	}
}

// addSession adds a session to the pool, retrying other users while
// the table refuses one; it reports false if every try was refused.
func (g *Generator) addSession() bool {
	for tries := 0; tries < 100; tries++ {
		uid := g.randomUID()
		if sid, _, ok := g.sessions.Create(uid); ok {
			g.sids = append(g.sids, sid)
			return true
		}
	}
	return false
}

func (g *Generator) randomUID() uint64 {
	if g.limit > 0 && len(g.users) >= g.limit {
		return g.users[g.rng.Intn(len(g.users))]
	}
	g.nextUID++
	uid := uint64(g.rng.Int63n(1<<40)) ^ g.nextUID<<20
	if g.limit > 0 {
		g.users = append(g.users, uid)
	}
	return uid
}

// pickSID returns a random live session id.
func (g *Generator) pickSID() session.ID {
	if len(g.sids) == 0 {
		panic("banking: generator has no live sessions; call Populate first")
	}
	return g.sids[g.rng.Intn(len(g.sids))]
}

// takeSID removes and returns a random live session id (for logout) and
// replenishes the pool with a new session so isolation runs can
// continue indefinitely. A table that refuses the new session leaves
// the pool one short rather than stopping the run.
func (g *Generator) takeSID() session.ID {
	if len(g.sids) == 0 {
		panic("banking: generator has no live sessions; call Populate first")
	}
	i := g.rng.Intn(len(g.sids))
	sid := g.sids[i]
	g.sids[i] = g.sids[len(g.sids)-1]
	g.sids = g.sids[:len(g.sids)-1]
	g.addSession()
	return sid
}

// Request generates one raw HTTP request of type t. The result always
// fits the 512-byte request slot.
func (g *Generator) Request(t ReqType) []byte {
	var raw string
	switch t {
	case Login:
		uid := g.randomUID()
		body := fmt.Sprintf("userid=%d&passwd=%s", uid, backend.PasswordFor(uid))
		raw = fmt.Sprintf("POST /login.php HTTP/1.1\r\nHost: bank\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	case Logout:
		raw = g.get("/logout.php", g.takeSID())
	case AccountSummary:
		raw = g.get("/account_summary.php", g.pickSID())
	case AddPayee:
		raw = g.get("/add_payee.php", g.pickSID())
	case BillPay:
		raw = g.get("/bill_pay.php", g.pickSID())
	case BillPayStatusOutput:
		raw = g.get("/bill_pay_status_output.php", g.pickSID())
	case ChangeProfile:
		raw = g.get("/change_profile.php", g.pickSID())
	case CheckDetailHTML:
		raw = g.get(fmt.Sprintf("/check_detail_html.php?check_no=%d", 1000+g.rng.Intn(9000)), g.pickSID())
	case OrderCheck:
		raw = g.get("/order_check.php", g.pickSID())
	case PlaceCheckOrder:
		style := "standard"
		if g.rng.Intn(3) == 0 {
			style = "premium"
		}
		qty := []int{100, 200, 400}[g.rng.Intn(3)]
		raw = g.post("/place_check_order.php", g.pickSID(), fmt.Sprintf("style=%s&quantity=%d", style, qty))
	case PostPayee:
		raw = g.post("/post_payee.php", g.pickSID(),
			fmt.Sprintf("name=Vendor%04d&account=P-%06d", g.rng.Intn(10000), g.rng.Intn(1000000)))
	case PostTransfer:
		from, to := 0, 1
		if g.rng.Intn(2) == 0 {
			from, to = to, from
		}
		cents := 1 + g.rng.Intn(99)
		raw = g.post("/post_transfer.php", g.pickSID(),
			fmt.Sprintf("from=%d&to=%d&amount=0.%02d", from, to, cents))
	case Profile:
		raw = g.get("/profile.php", g.pickSID())
	case Transfer:
		raw = g.get("/transfer.php", g.pickSID())
	case QuickPay:
		// 1-3 payees: the data-dependent stage count of the extension.
		n := 1 + g.rng.Intn(3)
		var body strings.Builder
		for k := 1; k <= n; k++ {
			if k > 1 {
				body.WriteByte('&')
			}
			fmt.Fprintf(&body, "payee%d=Vendor%04d&amount%d=%d.%02d",
				k, g.rng.Intn(10000), k, 1+g.rng.Intn(40), g.rng.Intn(100))
		}
		raw = g.post("/quick_pay.php", g.pickSID(), body.String())
	default:
		panic(fmt.Sprintf("banking: unknown request type %d", t))
	}
	if len(raw) > RequestSlot {
		panic(fmt.Sprintf("banking: generated %s request of %d bytes exceeds slot", t, len(raw)))
	}
	return []byte(raw)
}

func (g *Generator) get(uri string, sid session.ID) string {
	return fmt.Sprintf("GET %s HTTP/1.1\r\nHost: bank\r\nCookie: MY_ID=%s\r\n\r\n", uri, sid)
}

func (g *Generator) post(uri string, sid session.ID, body string) string {
	return fmt.Sprintf("POST %s HTTP/1.1\r\nHost: bank\r\nCookie: MY_ID=%s\r\nContent-Length: %d\r\n\r\n%s",
		uri, sid, len(body), body)
}

// Mixed generates one request drawn from the Table 2 mix.
func (g *Generator) Mixed() ([]byte, ReqType) {
	t := g.SampleType()
	return g.Request(t), t
}

// SampleType draws a request type from the Table 2 distribution.
func (g *Generator) SampleType() ReqType {
	x := g.rng.Float64() * 100
	var acc float64
	for _, s := range Specs {
		acc += s.MixPercent
		if x < acc {
			return s.Type
		}
	}
	return Logout
}
