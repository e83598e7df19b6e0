package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"rhythm/internal/backend"
	"rhythm/internal/banking"
	"rhythm/internal/ecom"
	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
	"rhythm/internal/telemetry"
)

// Workload indexes in the default registry (banking registers first,
// then ecom, then telemetry).
const (
	wlBanking = iota
	wlEcom
	wlTelemetry
	numWorkloads
)

// bankingWrites are the banking types whose Besim request commits a
// mutation (and so fires the render cache's write hook).
var bankingWrites = []banking.ReqType{banking.PostTransfer, banking.PostPayee, banking.PlaceCheckOrder}

// ecomReads are the catalog reads rhythm-load's ecom flow cycles. Cart
// and checkout are left out: every cart add creates a session and grows
// a cart, so a long run would end on the store's structural limits.
var ecomReads = []int{ecom.Index, ecom.Browse, ecom.Search, ecom.Product}

// traffic describes one workload's request stream. Weights need not sum
// to anything; a zero weight leaves the type out.
type traffic struct {
	users    int                   // logged-in users (cookie slots) per client
	split    [numWorkloads]float64 // share of requests per workload
	banking  []float64             // weight per banking.ReqType
	pinCheck bool                  // one check number throughout, so check_detail pages repeat
}

// table2 returns the banking weights the registry declares (Table 2,
// reads and writes; quick_pay carries zero weight).
func table2(reg *service.Registry) []float64 {
	w := make([]float64, banking.NumTypes)
	for t := range w {
		w[t] = reg.Spec(reg.GID(wlBanking, t)).MixPercent
	}
	return w
}

// mixedTraffic is host_mixed's and cohort_socket's stream: banking 70 /
// ecom 25 / telemetry 5, banking types by Table 2.
func mixedTraffic(reg *service.Registry) traffic {
	return traffic{users: 256, split: [numWorkloads]float64{70, 25, 5}, banking: table2(reg)}
}

// cachedTraffic is the render-cache streams: banking only, writeShare of
// the requests are writes and the rest cacheable reads, both by their
// Table 2 weights, over users that keep their session for the whole run
// (no login or logout in the loop).
func cachedTraffic(reg *service.Registry, users int, writeShare float64) traffic {
	t2 := table2(reg)
	w := make([]float64, banking.NumTypes)
	var reads, writes float64
	for t := range w {
		if reg.Spec(reg.GID(wlBanking, t)).Cacheable {
			reads += t2[t]
		}
	}
	for _, t := range bankingWrites {
		writes += t2[t]
	}
	for t := range w {
		if reg.Spec(reg.GID(wlBanking, t)).Cacheable {
			w[t] = t2[t] / reads * (1 - writeShare)
		}
	}
	for _, t := range bankingWrites {
		w[t] = t2[t] / writes * writeShare
	}
	return traffic{users: users, split: [numWorkloads]float64{1, 0, 0}, banking: w, pinCheck: true}
}

// hostUnitTraffic is fabric_tcp_hostunits' stream: Table 2 banking plus
// ecom catalog reads, 3:1.
func hostUnitTraffic(reg *service.Registry) traffic {
	return traffic{users: 64, split: [numWorkloads]float64{75, 25, 0}, banking: table2(reg)}
}

type entryKind uint8

const (
	kindPlain  entryKind = iota
	kindLogin            // response carries the slot's new MY_ID cookie
	kindLogout           // the slot has no session afterwards
)

// entry is one generated request. raw is sent as is after the slot's
// current session cookie has been copied over the 16 placeholder bytes
// at cookieOff.
type entry struct {
	raw       []byte
	cookieOff int // -1: the request carries no session cookie
	slot      int
	kind      entryKind
	write     bool // commits a backend mutation
	typ       service.TypeID
}

// corpus is one client's seeded input: setup logs every slot in (and
// subscribes the client's telemetry stream); loop is cycled for as long
// as the window lasts and leaves every slot logged in, so cycling it is
// consistent.
type corpus struct {
	uids  []uint64
	setup []entry
	loop  []entry
}

const cookiePrefix = "Cookie: MY_ID="

// cookieJar holds each slot's current session cookie as the 16 hex
// characters the server issued.
//
// A cycled loop repeats its writes, and Besim state only grows: the user
// who gets three post_payee requests per cycle would own two hundred
// payees after seventy cycles and overflow the 4 KB backend response
// slot. So the jar shifts the slot-to-cookie mapping by one at every
// cycle: the loop stays the same bytes, but each pass applies it to the
// users shifted by one, and every user ends up with the same share of
// the writes. A cycle ends with every slot logged in, so the shift is
// safe at the boundary; within a cycle a slot is just a cookie holder,
// and whichever session a login stores there is valid until the slot's
// scripted logout.
type cookieJar struct {
	cookies [][16]byte
	shift   int
}

// newJar returns a jar whose slots hold a well-formed (if unknown)
// cookie, so an entry patched before its slot's login still parses.
func newJar(slots int) *cookieJar {
	j := &cookieJar{cookies: make([][16]byte, slots)}
	for s := range j.cookies {
		copy(j.cookies[s][:], "0000000000000000")
	}
	return j
}

func (j *cookieJar) holder(e *entry) *[16]byte {
	return &j.cookies[(e.slot+j.shift)%len(j.cookies)]
}

// cycled is called when the loop wraps.
func (j *cookieJar) cycled() { j.shift++ }

// patch copies the slot's cookie into the entry and returns the bytes to
// send.
func (j *cookieJar) patch(e *entry) []byte {
	if e.cookieOff >= 0 {
		copy(e.raw[e.cookieOff:e.cookieOff+16], j.holder(e)[:])
	}
	return e.raw
}

var setCookiePrefix = []byte("Set-Cookie: MY_ID=")

// learn stores the cookie a login response issued. head is any prefix of
// the response that holds the header block.
func (j *cookieJar) learn(e *entry, head []byte) bool {
	i := bytes.Index(head, setCookiePrefix)
	if i < 0 || len(head) < i+len(setCookiePrefix)+16 {
		return false
	}
	copy(j.holder(e)[:], head[i+len(setCookiePrefix):])
	return true
}

// sessionBuckets is the bucket count of every session array the live
// servers and clusters build.
const sessionBuckets = 256

// uidBase starts a client's user-id range, so that clients never share a
// user and different seeds use different users.
func uidBase(seed int64, client int) uint64 {
	return uint64(1_000_000*(client+1)) + uint64(seed%9973)*4001
}

// spreadUIDs picks n user ids for a client, scanning up from its base,
// such that slot s's sessions land in bucket want(s). A login leaves the
// slot's previous session behind (as a user who never logs out does), and
// a session-array bucket holds about a thousand: spreading the users
// evenly over the buckets keeps the fullest bucket far from that limit
// for any window the benchmark runs.
func spreadUIDs(seed int64, client, n int, want func(slot int) int) []uint64 {
	uids := make([]uint64, n)
	open := make(map[int][]int) // bucket -> slots still without a user
	for s := 0; s < n; s++ {
		open[want(s)] = append(open[want(s)], s)
	}
	for uid, left := uidBase(seed, client), n; left > 0; uid++ {
		b := session.BucketFor(uid, sessionBuckets)
		if slots := open[b]; len(slots) > 0 {
			uids[slots[0]] = uid
			open[b] = slots[1:]
			left--
		}
	}
	return uids
}

// pick draws an index from weights.
func pick(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return 0
}

// corpusGen generates one client's corpus. Banking request shapes come
// from banking.Generator.Request, bound to a throwaway session array
// (its session ids are placeholders the cookie jar overwrites); logins
// are written here because the generator logs in random users and the
// clients need their own.
type corpusGen struct {
	reg   *service.Registry
	tr    traffic
	rng   *rand.Rand
	gen   *banking.Generator
	seed  int64
	uids  []uint64
	out   []bool // slot is logged out
	nOut  int
	dev   int // this client's telemetry device stream
	frame int
}

func newCorpusGen(reg *service.Registry, tr traffic, seed int64, client int) *corpusGen {
	src := seed*1_000_003 + int64(client)*7919
	g := &corpusGen{
		reg: reg, tr: tr, seed: seed,
		rng:  rand.New(rand.NewSource(src)),
		gen:  banking.NewGenerator(src, session.NewArray(256, 256)),
		uids: spreadUIDs(seed, client, tr.users, func(s int) int { return (s + 97*client) % sessionBuckets }),
		out:  make([]bool, tr.users),
		dev:  1000 + 16*int(seed%997) + client,
	}
	g.gen.Populate(1)
	return g
}

func (g *corpusGen) login(slot int) entry {
	uid := g.uids[slot]
	body := fmt.Sprintf("userid=%d&passwd=%s", uid, backend.PasswordFor(uid))
	raw := fmt.Sprintf("POST /login.php HTTP/1.1\r\nHost: bank\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	return entry{raw: []byte(raw), cookieOff: -1, slot: slot, kind: kindLogin,
		typ: g.reg.GID(wlBanking, int(banking.Login))}
}

// liveSlot picks a random logged-in slot.
func (g *corpusGen) liveSlot() int {
	s := g.rng.Intn(len(g.out))
	for g.out[s] {
		s = (s + 1) % len(g.out)
	}
	return s
}

func (g *corpusGen) bankingEntry(t banking.ReqType) entry {
	if t == banking.Login {
		// Prefer a slot a logout left without a session, so logged-out
		// slots do not accumulate.
		slot := g.rng.Intn(len(g.out))
		if g.nOut > 0 {
			for !g.out[slot] {
				slot = (slot + 1) % len(g.out)
			}
			g.out[slot] = false
			g.nOut--
		}
		return g.login(slot)
	}
	if t == banking.Logout && g.nOut >= len(g.out)-1 {
		t = banking.AccountSummary // keep at least one live slot to draw from
	}
	slot := g.liveSlot()
	raw := g.gen.Request(t)
	e := entry{raw: raw, slot: slot, typ: g.reg.GID(wlBanking, int(t))}
	e.cookieOff = bytes.Index(raw, []byte(cookiePrefix)) + len(cookiePrefix)
	for _, w := range bankingWrites {
		e.write = e.write || t == w
	}
	if t == banking.Logout {
		e.kind = kindLogout
		g.out[slot] = true
		g.nOut++
	}
	if t == banking.CheckDetailHTML && g.tr.pinCheck {
		// The generator writes a random four-digit check number; overwrite
		// it so a user's check page is the same on every visit.
		i := bytes.Index(raw, []byte("check_no=")) + len("check_no=")
		copy(raw[i:i+4], fmt.Sprintf("%04d", 1000+g.seed%9000))
	}
	return e
}

func rawGet(uri string) []byte {
	return []byte("GET " + uri + " HTTP/1.1\r\nHost: bank\r\n\r\n")
}

func rawPost(uri, body string) []byte {
	return []byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: bank\r\nContent-Length: %d\r\n\r\n%s", uri, len(body), body))
}

func (g *corpusGen) ecomEntry(local int) entry {
	var raw []byte
	switch local {
	case ecom.Index:
		raw = rawGet("/index.php")
	case ecom.Browse:
		raw = rawGet("/browse.php?cat=" + ecom.Categories[g.rng.Intn(len(ecom.Categories))])
	case ecom.Search:
		raw = rawGet(fmt.Sprintf("/search.php?q=kw%d", g.rng.Intn(977)))
	default:
		raw = rawGet(fmt.Sprintf("/product.php?id=%d", g.rng.Intn(100000)))
	}
	return entry{raw: raw, cookieOff: -1, typ: g.reg.GID(wlEcom, local)}
}

func (g *corpusGen) telemetryEntry(local int) entry {
	var raw []byte
	switch local {
	case telemetry.Ingest:
		g.frame++
		raw = rawPost("/t/ingest", fmt.Sprintf("dev=%d&f=%04x", g.dev, g.frame&0xffff))
	case telemetry.Subscribe:
		raw = rawGet(fmt.Sprintf("/t/subscribe?dev=%d&sub=1", g.dev))
	case telemetry.Poll:
		raw = rawGet(fmt.Sprintf("/t/poll?dev=%d&sub=1", g.dev))
	default:
		raw = rawGet(fmt.Sprintf("/t/status?dev=%d", g.dev))
	}
	return entry{raw: raw, cookieOff: -1, write: local != telemetry.Status,
		typ: g.reg.GID(wlTelemetry, local)}
}

// localWeights returns, per workload, the mix weights over the types
// the traffic draws from it (nil for a workload it leaves out).
func (tr traffic) localWeights(reg *service.Registry) [numWorkloads][]float64 {
	var ws [numWorkloads][]float64
	if tr.split[wlBanking] > 0 {
		ws[wlBanking] = tr.banking
	}
	if tr.split[wlEcom] > 0 {
		ws[wlEcom] = make([]float64, ecom.NumTypes)
		for _, l := range ecomReads {
			ws[wlEcom][l] = reg.Spec(reg.GID(wlEcom, l)).MixPercent
		}
	}
	if tr.split[wlTelemetry] > 0 {
		ws[wlTelemetry] = make([]float64, telemetry.NumTypes)
		for l := range ws[wlTelemetry] {
			ws[wlTelemetry][l] = reg.Spec(reg.GID(wlTelemetry, l)).MixPercent
		}
	}
	return ws
}

func (g *corpusGen) entryOf(w, local int) entry {
	switch w {
	case wlBanking:
		return g.bankingEntry(banking.ReqType(local))
	case wlEcom:
		return g.ecomEntry(local)
	default:
		return g.telemetryEntry(local)
	}
}

// build generates the corpus: the set-up script, then n loop entries
// that open with one request of every type in the mix (so any prefix of
// at least that length covers the mix) and end by logging back in every
// slot a logout left without a session.
func (g *corpusGen) build(n int) *corpus {
	c := &corpus{uids: g.uids}
	for s := range g.uids {
		c.setup = append(c.setup, g.login(s))
	}
	if g.tr.split[wlTelemetry] > 0 {
		c.setup = append(c.setup, g.telemetryEntry(telemetry.Subscribe))
	}
	weights := g.tr.localWeights(g.reg)
	for w := range weights {
		for local, wt := range weights[w] {
			if wt > 0 {
				c.loop = append(c.loop, g.entryOf(w, local))
			}
		}
	}
	for len(c.loop) < n {
		w := pick(g.rng, g.tr.split[:])
		c.loop = append(c.loop, g.entryOf(w, pick(g.rng, weights[w])))
	}
	for s, out := range g.out {
		if out {
			g.out[s] = false
			c.loop = append(c.loop, g.login(s))
		}
	}
	g.nOut = 0
	return c
}

// unitEntry is a corpus entry in the parsed form a cluster.Unit carries.
// cookieIdx indexes req.Cookies (-1: no session cookie).
type unitEntry struct {
	entry
	req       httpx.Request
	cookieIdx int
}

// parseEntries converts raw entries to unit entries.
func parseEntries(es []entry) ([]unitEntry, error) {
	out := make([]unitEntry, len(es))
	for i, e := range es {
		req, err := httpx.Parse(e.raw)
		if err != nil {
			return nil, fmt.Errorf("generated request %d does not parse: %w", i, err)
		}
		out[i] = unitEntry{entry: e, req: req, cookieIdx: -1}
		for k, c := range req.Cookies {
			if c.Key == "MY_ID" {
				out[i].cookieIdx = k
			}
		}
	}
	return out, nil
}
