package banking

import (
	"bytes"
	"strconv"
	"strings"

	"rhythm/internal/service"
)

// Shared page chrome: the static styling and navigation every SPECWeb
// Banking page carries. On the device these strings live in constant
// memory (§4.6).

const cssBlock = `<style type="text/css">
body { font-family: Verdana, Arial, sans-serif; font-size: 11px; margin: 0; background: #f4f6f8; color: #222; }
#banner { background: #003366; color: #ffffff; padding: 10px 18px; font-size: 20px; letter-spacing: 1px; }
#banner .tag { font-size: 10px; color: #9fb6cc; display: block; }
#nav { background: #e8eef4; border-bottom: 1px solid #b8c4d0; padding: 6px 18px; }
#nav a { color: #003366; margin-right: 14px; text-decoration: none; font-weight: bold; }
#nav a:hover { text-decoration: underline; }
#content { padding: 16px 22px; }
h1 { font-size: 16px; color: #003366; border-bottom: 2px solid #7a94ad; padding-bottom: 4px; }
h2 { font-size: 13px; color: #1d4a73; margin-top: 18px; }
table.data { border-collapse: collapse; width: 100%; margin: 8px 0; }
table.data th { background: #d7e1ea; text-align: left; padding: 4px 8px; border: 1px solid #b8c4d0; }
table.data td { padding: 4px 8px; border: 1px solid #ccd6e0; background: #ffffff; }
table.data tr.alt td { background: #f0f4f8; }
.amount { text-align: right; font-family: "Courier New", monospace; }
.debit { color: #a40000; } .credit { color: #006400; }
.error { color: #a40000; font-weight: bold; }
.fine { color: #667; font-size: 9px; line-height: 1.5; }
form.bank label { display: inline-block; width: 140px; font-weight: bold; }
form.bank input, form.bank select { margin: 3px 0; font-size: 11px; }
.button { background: #003366; color: #fff; border: 1px solid #001a33; padding: 3px 14px; }
.notice { background: #fff8dc; border: 1px solid #d4c56a; padding: 8px; margin: 10px 0; }
</style>
`

const bannerHTML = `<div id="banner">SPECweb2009 Community Bank<span class="tag">Online banking, reproduced for research</span></div>
`

const navHTML = `<div id="nav"><a href="/account_summary.php">Summary</a><a href="/bill_pay.php">Bill Pay</a><a href="/transfer.php">Transfer</a><a href="/order_check.php">Order Checks</a><a href="/profile.php">Profile</a><a href="/change_profile.php">Settings</a><a href="/add_payee.php">Payees</a><a href="/logout.php">Log Out</a></div>
<div id="content">
`

const footHTML = `</div>
<div id="footer"><p class="fine">&copy; 2009 SPECweb Community Bank &middot; Routing 000000000 &middot; This site is a benchmark workload; no real funds are held. Session activity is recorded for benchmarking purposes only.</p></div>
</body></html>
`

// pageHead emits the document head and banner (static chrome).
func pageHead(ctx *service.Ctx, title string) {
	p := ctx.Page
	p.Static("<!DOCTYPE html PUBLIC \"-//W3C//DTD HTML 4.01//EN\">\n<html><head><title>SPECweb Banking - ")
	p.Static(title)
	p.Static("</title>\n")
	p.Static(cssBlock)
	p.Static("</head><body>\n")
	p.Static(bannerHTML)
	p.Static(navHTML)
}

// compactCSS is the slim stylesheet the 4 KB login landing page uses
// (the full chrome would not fit its Table 2 size).
const compactCSS = `<style type="text/css">
body { font-family: Verdana, Arial, sans-serif; font-size: 11px; margin: 0; background: #f4f6f8; color: #222; }
#banner { background: #003366; color: #fff; padding: 10px 18px; font-size: 20px; }
#content { padding: 16px 22px; }
h1 { font-size: 16px; color: #003366; } h2 { font-size: 13px; color: #1d4a73; }
table.data { border-collapse: collapse; } table.data th, table.data td { padding: 3px 8px; border: 1px solid #ccd6e0; }
.amount { text-align: right; } .notice { background: #fff8dc; border: 1px solid #d4c56a; padding: 8px; }
.fine { color: #667; font-size: 9px; }
</style>
`

// pageHeadCompact emits the slim document head used by login.
func pageHeadCompact(ctx *service.Ctx, title string) {
	p := ctx.Page
	p.Static("<!DOCTYPE html PUBLIC \"-//W3C//DTD HTML 4.01//EN\">\n<html><head><title>SPECweb Banking - ")
	p.Static(title)
	p.Static("</title>\n")
	p.Static(compactCSS)
	p.Static("</head><body>\n")
	p.Static(bannerHTML)
	p.Static("<div id=\"content\">\n")
}

// pageFoot fills the body with static boilerplate up to the page's
// published content size and closes the document.
func pageFoot(ctx *service.Ctx) {
	p := ctx.Page
	p.FillWith(filler, Specs[ctx.Local].ContentBytes()-len(footHTML))
	p.Static(footHTML)
}

// filler is the fixed template prose pageFoot repeats.
var filler = service.NewFiller(fillerPara)

const fillerPara = "<p class=\"fine\">Member FDIC. Equal Housing Lender. Online banking " +
	"services are provided subject to the terms and conditions of your account " +
	"agreement. Rates, fees and terms are subject to change without notice. " +
	"Consult the fee schedule for details about wire transfers, stop payments, " +
	"and expedited delivery options. Statements are available online for " +
	"twenty-four months; contact a branch representative for older records. " +
	"Protect your credentials: we will never ask for your password by email.</p>\n"

// blockBase is the type's basic-block id space in the Fig 2 trace.
func blockBase(t ReqType) uint32 { return service.BlockBase(int(t)) }

// errorPage is banking's divergent error body (§4.4).
func errorPage(ctx *service.Ctx) {
	ctx.Page.Static("<html><head><title>SPECweb Banking - Error</title></head><body>\n<h1>Request failed</h1>\n<p class=\"error\">")
	ctx.Page.Dynamic(ctx.Err)
	ctx.Page.Static("</p>\n<p><a href=\"/login.php\">Return to login</a></p>\n</body></html>\n")
}

// greeting emits the per-user salutation — the first dynamic fragment of
// every authenticated page — and realigns the cohort after it. Some
// customers get an extra alert banner (a genuinely data-dependent branch:
// the kind of per-request control-flow variation the §2.3 trace study
// merges and the SIMT warps serialize).
func greeting(ctx *service.Ctx, name string) {
	p := ctx.Page
	mark := p.Len()
	p.Static("<p>Welcome back, <b>")
	p.Dynamic(esc(name))
	p.Static("</b>. Your last visit was recorded.</p>\n")
	prev := p.LastBlock()
	if ctx.UserID%4 == 0 {
		p.Block(service.BlockBase(ctx.Local) + 900)
		p.Static("<p class=\"notice\">You have a secure message waiting in your inbox.</p>\n")
	}
	if ctx.UserID%8 == 1 {
		p.Block(service.BlockBase(ctx.Local) + 901)
		p.Static("<p class=\"notice\">A statement is ready for one of your accounts.</p>\n")
	}
	p.Reconverge(prev)
	p.PadTo(mark + 300)
}

// escReplacer is shared across requests; Replace is safe for
// concurrent use and building it per call dominated the execute path's
// allocation profile.
var escReplacer = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

// escapes marks the bytes escReplacer replaces.
var escapes = [256]bool{'&': true, '<': true, '>': true, '"': true}

// esc HTML-escapes dynamic text. Most dynamic fragments carry nothing
// to escape, so the common case scans s by table and returns it
// unchanged without copying.
func esc(s string) string {
	for i := 0; i < len(s); i++ {
		if escapes[s[i]] {
			return escReplacer.Replace(s)
		}
	}
	return s
}

// money renders cents as a dollar amount into the page's arena (valid
// until the page is reset).
func money(p *service.PageBuilder, cents int64) string {
	if cents < 0 {
		u := -uint64(cents)
		return p.Sprintf("-$%d.%02d", u/100, u%100)
	}
	return p.Sprintf("$%d.%02d", cents/100, cents%100)
}

// beLines keeps a backend response in the page's arena and returns its
// payload — the lines after "OK" — reporting whether the backend
// answered OK; when it did not, the lines are the whole response. The
// kept copy is what lets the lines outlive the stage call
// (quickPayState, the page's pieces): resp is the backend's own buffer
// or the lane's slot.
func beLines(p *service.PageBuilder, resp []byte) (service.Lines, bool) {
	s := p.Keep(bytes.TrimRight(resp, "\n "))
	first, rest, _ := strings.Cut(s, "\n")
	if first != "OK" {
		return service.Lines(s), false
	}
	return service.Lines(rest), true
}

// cutAt splits l around its first line equal to sep: the lines before
// it and the lines after it, or all of l and none when no line matches.
func cutAt(l service.Lines, sep string) (before, after service.Lines) {
	for rest := l; rest != ""; {
		at := len(l) - len(rest)
		if rest.Next() == sep {
			return l[:max(at-1, 0)], rest
		}
	}
	return l, ""
}

// splitRow cuts an "a|b|c"-style backend row into f, returning its
// field count.
func splitRow(f []string, row string) int { return service.Split(f, row, '|') }

// atoi64 parses an int64, reporting ok.
func atoi64(s string) (int64, bool) {
	v, err := strconv.ParseInt(s, 10, 64)
	return v, err == nil
}
