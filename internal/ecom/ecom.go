package ecom

import (
	"bytes"
	"strconv"
	"strings"

	"rhythm/internal/httpx"
	"rhythm/internal/service"
	"rhythm/internal/session"
)

// Local request types, in registration order.
const (
	Index = iota
	Browse
	Search
	Product
	Cart
	Checkout
	NumTypes
)

// CookieName is the e-commerce session cookie.
const CookieName = "EC_ID"

// New builds the registrable E-commerce workload: SPECWeb
// E-commerce-style browse/search/product/cart/checkout pages with
// power-of-two response buffers, one Besim round trip per catalog page
// and two for checkout.
func New() *service.PageWorkload {
	return service.NewPageWorkload(service.PageWorkloadConfig{
		Name:       "ecom",
		CookieName: CookieName,
		Defs: []service.SvcDef{
			{Name: "index", Path: "/index.php", MixPercent: 30, Backends: 1,
				BufferBytes: 8 << 10, Session: service.SessionOptional, Cacheable: true, Stage: indexStage},
			{Name: "browse", Path: "/browse.php", MixPercent: 20, Backends: 1,
				BufferBytes: 16 << 10, Session: service.SessionOptional, Cacheable: true, Stage: browseStage},
			{Name: "search", Path: "/search.php", MixPercent: 15, Backends: 1,
				BufferBytes: 16 << 10, Session: service.SessionOptional, Cacheable: true, Stage: searchStage},
			{Name: "product_detail", Path: "/product.php", MixPercent: 20, Backends: 1,
				BufferBytes: 8 << 10, Session: service.SessionOptional, Cacheable: true, Stage: productStage},
			{Name: "cart_add", Path: "/cart.php", Post: true, MixPercent: 10, Backends: 1,
				BufferBytes: 4 << 10, Session: service.SessionCreates, Stage: cartStage},
			{Name: "checkout", Path: "/checkout.php", Post: true, MixPercent: 5, Backends: 2,
				BufferBytes: 8 << 10, Session: service.SessionRequired, VariableStages: true, Stage: checkoutStage},
		},
		NewBackend: func() service.Backend { return NewStore() },
		Affinity:   affinity,
	})
}

// affinity pins cart adds to the bucket their created session will land
// in (hashing the posted uid the way session.Create will); everything
// else recovers its bucket from the session cookie or is stateless —
// catalog reads are pure synthesis and identical from any group's
// store.
func affinity(req *httpx.Request, local int, buckets int) int {
	if local == Cart {
		uid, err := strconv.ParseUint(req.Param("uid"), 10, 64)
		if err != nil {
			return -1
		}
		return session.BucketFor(uid, buckets)
	}
	if id, ok := session.ParseID(req.Cookie(CookieName)); ok {
		return id.Bucket(buckets)
	}
	return -1
}

// backendLines validates an "OK\n..." backend response and returns its
// payload lines, cut from the copy the page keeps: bresp is the store's
// own buffer or the lane's slot, and the lines become pieces of the page.
func backendLines(ctx *service.Ctx, bresp []byte) service.Lines {
	first, rest, _ := strings.Cut(ctx.Page.Keep(bytes.TrimRight(bresp, "\n")), "\n")
	if first != "OK" {
		ctx.Fail("catalog backend error: " + strings.TrimPrefix(string(bresp), "FAIL "))
		return ""
	}
	return service.Lines(rest)
}

func pageHead(ctx *service.Ctx, title string) {
	p := ctx.Page
	p.Static("<html><head><title>RhythmShop - ")
	p.Static(title)
	p.Static("</title></head><body>\n<div id=\"nav\"><a href=\"/index.php\">Home</a> | <a href=\"/cart.php\">Cart</a> | <a href=\"/checkout.php\">Checkout</a></div>\n")
	if ctx.HasSession {
		p.Static("<div id=\"acct\">Signed in as customer ")
		p.Dynamicf("%d", ctx.UserID)
		p.Static("</div>\n")
	} else {
		p.Static("<div id=\"acct\">Browsing as guest</div>\n")
	}
	p.PadTo(p.Len())
}

func pageTail(ctx *service.Ctx) {
	p := ctx.Page
	p.FillTo(ctx.Def.BufferBytes / 2)
	p.Static("</body></html>\n")
}

// productTable renders "pid|name|category|cents|stock" rows.
func productTable(ctx *service.Ctx, rows service.Lines) {
	p := ctx.Page
	p.Static("<table class=\"catalog\"><tr><th>Item</th><th>Category</th><th>Price</th><th>Stock</th></tr>\n")
	var f [5]string
	for rows != "" {
		if service.Split(f[:], rows.Next(), '|') != 5 {
			ctx.Fail("catalog backend error: bad row")
			return
		}
		p.Static("<tr><td><a href=\"/product.php?id=")
		p.Dynamic(f[0])
		p.Static("\">")
		p.Dynamic(f[1])
		p.Static("</a></td><td>")
		p.Dynamic(f[2])
		p.Static("</td><td>$")
		p.Dynamic(centsToDollars(p, f[3]))
		p.Static("</td><td>")
		p.Dynamic(f[4])
		p.Static("</td></tr>\n")
		p.PadTo(p.Len())
	}
	p.Static("</table>\n")
}

// centsToDollars renders a backend row's cents field as dollars into
// the page's arena; a field that is not an amount goes out as it came.
func centsToDollars(p *service.PageBuilder, cents string) string {
	n, err := strconv.ParseInt(cents, 10, 64)
	if err != nil || n < 0 {
		return cents
	}
	return p.Sprintf("%d.%02d", n/100, n%100)
}

func indexStage(ctx *service.Ctx, stage int, bresp []byte) []byte {
	if stage == 0 {
		return ctx.Page.Appendf("INDEX")
	}
	rows := backendLines(ctx, bresp)
	if ctx.Err != "" {
		return nil
	}
	pageHead(ctx, "Storefront")
	ctx.Page.Static("<h1>Featured items</h1>\n")
	productTable(ctx, rows)
	pageTail(ctx)
	return nil
}

func browseStage(ctx *service.Ctx, stage int, bresp []byte) []byte {
	if stage == 0 {
		cat := ctx.Req.Param("cat")
		if cat == "" {
			ctx.Fail("missing category")
			return nil
		}
		return ctx.Page.Appendf("CATEGORY %s", cat)
	}
	rows := backendLines(ctx, bresp)
	if ctx.Err != "" {
		return nil
	}
	pageHead(ctx, "Browse")
	ctx.Page.Static("<h1>Category: ")
	ctx.Page.Dynamic(ctx.Req.Param("cat"))
	ctx.Page.Static("</h1>\n")
	ctx.Page.PadTo(ctx.Page.Len())
	productTable(ctx, rows)
	pageTail(ctx)
	return nil
}

func searchStage(ctx *service.Ctx, stage int, bresp []byte) []byte {
	if stage == 0 {
		q := ctx.Req.Param("q")
		if q == "" {
			ctx.Fail("empty query")
			return nil
		}
		return ctx.Page.Appendf("SEARCH %s", q)
	}
	rows := backendLines(ctx, bresp)
	if ctx.Err != "" {
		return nil
	}
	pageHead(ctx, "Search")
	ctx.Page.Static("<h1>Results for &quot;")
	ctx.Page.Dynamic(ctx.Req.Param("q"))
	ctx.Page.Static("&quot;</h1>\n")
	ctx.Page.PadTo(ctx.Page.Len())
	productTable(ctx, rows)
	pageTail(ctx)
	return nil
}

func productStage(ctx *service.Ctx, stage int, bresp []byte) []byte {
	if stage == 0 {
		if _, err := strconv.ParseUint(ctx.Req.Param("id"), 10, 64); err != nil {
			ctx.Fail("bad product id")
			return nil
		}
		return ctx.Page.Appendf("PRODUCT %s", ctx.Req.Param("id"))
	}
	rows := backendLines(ctx, bresp)
	if ctx.Err != "" {
		return nil
	}
	var f [5]string
	if rows == "" || strings.Contains(string(rows), "\n") || service.Split(f[:], string(rows), '|') != 5 {
		ctx.Fail("catalog backend error: bad product row")
		return nil
	}
	pageHead(ctx, "Product")
	p := ctx.Page
	p.Static("<h1>")
	p.Dynamic(f[1])
	p.Static("</h1>\n<p>Category: <a href=\"/browse.php?cat=")
	p.Dynamic(f[2])
	p.Static("\">")
	p.Dynamic(f[2])
	p.Static("</a></p>\n<p class=\"price\">$")
	p.Dynamic(centsToDollars(p, f[3]))
	p.Static("</p>\n<p class=\"stock\">")
	p.Dynamic(f[4])
	p.Static(" in stock</p>\n<form method=\"POST\" action=\"/cart.php\"><input type=\"hidden\" name=\"id\" value=\"")
	p.Dynamic(f[0])
	p.Static("\"><input type=\"submit\" value=\"Add to cart\"></form>\n")
	pageTail(ctx)
	return nil
}

// cartPage renders "pid|name|qty|cents" cart rows plus a total.
func cartPage(ctx *service.Ctx, rows service.Lines) {
	p := ctx.Page
	if rows == "" {
		ctx.Fail("cart backend error: missing count")
		return
	}
	rows.Next() // the line count
	p.Static("<h1>Your cart</h1>\n<table class=\"cart\"><tr><th>Item</th><th>Qty</th><th>Price</th></tr>\n")
	var total int64
	var f [4]string
	for rows != "" {
		if service.Split(f[:], rows.Next(), '|') != 4 {
			ctx.Fail("cart backend error: bad row")
			return
		}
		qty, _ := strconv.ParseInt(f[2], 10, 64)
		cents, _ := strconv.ParseInt(f[3], 10, 64)
		total += qty * cents
		p.Static("<tr><td><a href=\"/product.php?id=")
		p.Dynamic(f[0])
		p.Static("\">")
		p.Dynamic(f[1])
		p.Static("</a></td><td>")
		p.Dynamic(f[2])
		p.Static("</td><td>$")
		p.Dynamic(centsToDollars(p, f[3]))
		p.Static("</td></tr>\n")
		p.PadTo(p.Len())
	}
	p.Static("</table>\n<p class=\"total\">Total: $")
	p.Dynamicf("%d.%02d", total/100, total%100)
	p.Static("</p>\n")
	p.PadTo(p.Len())
}

func cartStage(ctx *service.Ctx, stage int, bresp []byte) []byte {
	if stage == 0 {
		uid, err1 := strconv.ParseUint(ctx.Req.Param("uid"), 10, 64)
		_, err2 := strconv.ParseUint(ctx.Req.Param("id"), 10, 64)
		qty := ctx.Req.Param("qty")
		if qty == "" {
			qty = "1"
		}
		if _, err := strconv.Atoi(qty); err != nil || err1 != nil || err2 != nil {
			ctx.Fail("bad cart parameters")
			return nil
		}
		// The session is created before the backend commit: a full table
		// must fail the request up front, and the response cookie is part
		// of the fixed render geometry.
		if !ctx.CreateSession(uid) {
			return nil
		}
		return ctx.Page.Appendf("ADDCART %s %s %s", ctx.Req.Param("uid"), ctx.Req.Param("id"), qty)
	}
	rows := backendLines(ctx, bresp)
	if ctx.Err != "" {
		return nil
	}
	pageHead(ctx, "Cart")
	cartPage(ctx, rows)
	if ctx.Err != "" {
		return nil
	}
	pageTail(ctx)
	return nil
}

func checkoutStage(ctx *service.Ctx, stage int, bresp []byte) []byte {
	p := ctx.Page
	switch stage {
	case 0:
		return p.Appendf("CART %d", ctx.UserID)
	case 1:
		rows := backendLines(ctx, bresp)
		if ctx.Err != "" {
			return nil
		}
		if rows != "" && rows.Next() == "0" {
			// Variable-stage early completion: nothing to order, skip the
			// ORDER round trip and emit now.
			pageHead(ctx, "Checkout")
			p.Static("<h1>Your cart is empty</h1>\n<p>Add items from the <a href=\"/index.php\">catalog</a> before checking out.</p>\n")
			pageTail(ctx)
			ctx.Done = true
			return nil
		}
		return p.Appendf("ORDER %d", ctx.UserID)
	default:
		body := backendLines(ctx, bresp)
		if ctx.Err != "" {
			return nil
		}
		var lines [3]string // confirmation, items, total
		if service.Split(lines[:], string(body), '\n') != 3 {
			ctx.Fail("order backend error: bad confirmation")
			return nil
		}
		cents, _ := strconv.ParseInt(lines[2], 10, 64)
		pageHead(ctx, "Order placed")
		p.Static("<h1>Thank you for your order</h1>\n<p>Confirmation <b>")
		p.Dynamic(lines[0])
		p.Static("</b></p>\n<p>")
		p.Dynamic(lines[1])
		p.Static(" items, total $")
		p.Dynamicf("%d.%02d", cents/100, cents%100)
		p.Static("</p>\n")
		pageTail(ctx)
		return nil
	}
}
