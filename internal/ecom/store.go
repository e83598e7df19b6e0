// Package ecom implements a SPECWeb E-commerce/Support-style page
// workload on the service registry: catalog browsing, search, product
// detail, cart, and checkout, with Table-2-style power-of-two response
// buffers and its own Besim-shard store. Catalog data is synthesized
// deterministically from hashes (read paths are pure), while carts and
// orders are per-shard-group mutable state committed through deferred
// backend writes exactly like banking's Besim.
package ecom

import (
	"strconv"

	"rhythm/internal/fmtx"
)

// Store is the e-commerce backend: a deterministic synthesized catalog
// plus mutable carts and orders. Like backend.DB, reads (Reads) may run
// concurrently with reads, and a write runs alone: the cluster drives
// one Store per shard group.
type Store struct {
	carts     map[uint64][]cartLine
	orders    map[uint64][]string
	writeHook func(uid uint64)
}

type cartLine struct {
	pid uint64
	qty int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		carts:  make(map[uint64][]cartLine),
		orders: make(map[uint64][]string),
	}
}

// SetWriteHook implements service.Backend.
func (s *Store) SetWriteHook(fn func(uid uint64)) { s.writeHook = fn }

func (s *Store) noteWrite(uid uint64) {
	if s.writeHook != nil {
		s.writeHook(uid)
	}
}

// mix is the splitmix64 finalizer seeding the synthesized catalog.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Categories is the fixed catalog taxonomy.
var Categories = []string{"audio", "books", "garden", "kitchen", "office", "outdoors", "toys", "video"}

var adjectives = []string{"Compact", "Deluxe", "Basic", "Premium", "Portable", "Classic", "Modern", "Rugged"}
var nouns = []string{"Widget", "Speaker", "Lamp", "Kettle", "Binder", "Tent", "Puzzle", "Camera", "Stand", "Cable", "Mug", "Chair", "Planter", "Router", "Easel", "Scale"}

// item is one synthesized catalog entry; its display name is
// "<adjective> <noun> #<pid>".
type item struct {
	adjective, noun, category string
	cents                     int64
	stock                     int
}

// product synthesizes the catalog entry for pid deterministically —
// every shard group's store answers catalog reads identically, which is
// what lets stateless browse/search requests run on any device.
func product(pid uint64) item {
	h := mix(pid ^ 0xec0)
	return item{
		adjective: adjectives[h%8],
		noun:      nouns[(h>>8)%16],
		category:  Categories[(h>>16)%8],
		cents:     int64(h%20000_00) + 99,
		stock:     int(h>>24) % 500,
	}
}

// appendProduct appends one catalog row: "pid|name|category|cents|stock".
func appendProduct(b []byte, pid uint64) []byte {
	it := product(pid)
	return fmtx.Appendf(b, "%d|%s %s #%d|%s|%d|%d\n", pid, it.adjective, it.noun, pid, it.category, it.cents, it.stock)
}

// catalogRows is how many rows list responses carry (bounded by the
// 4 KB backend response slot).
const catalogRows = 12

// Handle implements service.Backend: line-oriented "VERB arg..."
// requests of up to 1 KB, read in place and never kept, and responses
// within 4 KB, appended to dst.
func (s *Store) Handle(dst, req []byte) []byte {
	var fields [4]string
	f := fields[:min(fmtx.Fields(fields[:], req), len(fields))]
	if len(f) == 0 {
		return reply(dst, "ERR empty")
	}
	b := append(dst, "OK\n"...)
	switch f[0] {
	case "INDEX":
		for i := 0; i < catalogRows; i++ {
			b = appendProduct(b, mix(0xfea7+uint64(i))%100000)
		}
	case "SEARCH":
		if len(f) < 2 {
			return reply(dst, "ERR args")
		}
		h := hashString(f[1])
		for i := 0; i < catalogRows; i++ {
			b = appendProduct(b, mix(h+uint64(i))%100000)
		}
	case "CATEGORY":
		if len(f) < 2 {
			return reply(dst, "ERR args")
		}
		// Deterministic membership: walk hashes of the category until
		// enough synthesized products actually belong to it.
		h := hashString(f[1])
		found := 0
		for i := uint64(0); found < catalogRows && i < 4096; i++ {
			pid := mix(h+i) % 100000
			if product(pid).category == f[1] {
				b = appendProduct(b, pid)
				found++
			}
		}
		if found == 0 {
			return reply(dst, "ERR no such category")
		}
	case "PRODUCT":
		if len(f) < 2 {
			return reply(dst, "ERR args")
		}
		pid, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return reply(dst, "ERR args")
		}
		b = appendProduct(b, pid)
	case "ADDCART":
		if len(f) < 4 {
			return reply(dst, "ERR args")
		}
		uid, err1 := strconv.ParseUint(f[1], 10, 64)
		pid, err2 := strconv.ParseUint(f[2], 10, 64)
		qty, err3 := strconv.Atoi(f[3])
		if err1 != nil || err2 != nil || err3 != nil || qty <= 0 || qty > 99 {
			return reply(dst, "ERR args")
		}
		cart := append(s.carts[uid], cartLine{pid: pid, qty: qty})
		if len(cart) > 20 {
			return reply(dst, "FAIL cart full")
		}
		s.carts[uid] = cart
		s.noteWrite(uid)
		b = s.appendCart(b, uid)
	case "CART":
		if len(f) < 2 {
			return reply(dst, "ERR args")
		}
		uid, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return reply(dst, "ERR args")
		}
		b = s.appendCart(b, uid)
	case "ORDER":
		if len(f) < 2 {
			return reply(dst, "ERR args")
		}
		uid, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return reply(dst, "ERR args")
		}
		cart := s.carts[uid]
		if len(cart) == 0 {
			return reply(dst, "FAIL empty cart")
		}
		var total int64
		items := 0
		for _, l := range cart {
			total += product(l.pid).cents * int64(l.qty)
			items += l.qty
		}
		conf := fmtx.Sprintf("EC-%08x", uint32(mix(uid^uint64(len(s.orders[uid]))^0x0bde)))
		s.orders[uid] = append(s.orders[uid], conf)
		delete(s.carts, uid)
		s.noteWrite(uid)
		b = fmtx.Appendf(b, "%s\n%d\n%d\n", conf, items, total)
	default:
		return reply(dst, "ERR unknown verb ", f[0])
	}
	return b
}

// Reads implements service.Backend: the catalog and cart verbs, which
// store nothing and fire no write hook.
func (s *Store) Reads(req []byte) bool {
	var verb [1]string
	fmtx.Fields(verb[:], req)
	switch verb[0] {
	case "INDEX", "SEARCH", "CATEGORY", "PRODUCT", "CART":
		return true
	}
	return false
}

// reply appends a reply that carries no data — a failure's — to dst.
// Every one is longer than the "OK\n" a verb appends before it may
// fail, so it covers that.
func reply(dst []byte, parts ...string) []byte {
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// appendCart appends "<lines>\n" then "pid|name|qty|cents" rows.
func (s *Store) appendCart(b []byte, uid uint64) []byte {
	cart := s.carts[uid]
	b = fmtx.Appendf(b, "%d\n", len(cart))
	for _, l := range cart {
		it := product(l.pid)
		b = fmtx.Appendf(b, "%d|%s %s #%d|%d|%d\n", l.pid, it.adjective, it.noun, l.pid, l.qty, it.cents)
	}
	return b
}
