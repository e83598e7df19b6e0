package banking

import (
	"fmt"
	"strconv"
	"strings"

	"rhythm/internal/service"
)

// stages holds the 15 stage functions, indexed by ReqType.
var stages = [NumTypes]service.StageFunc{
	Login:               loginStage,
	AccountSummary:      accountSummaryStage,
	AddPayee:            addPayeeStage,
	BillPay:             billPayStage,
	BillPayStatusOutput: billPayStatusStage,
	ChangeProfile:       changeProfileStage,
	CheckDetailHTML:     checkDetailStage,
	OrderCheck:          orderCheckStage,
	PlaceCheckOrder:     placeCheckOrderStage,
	PostPayee:           postPayeeStage,
	PostTransfer:        postTransferStage,
	Profile:             profileStage,
	Transfer:            transferStage,
	Logout:              logoutStage,
	QuickPay:            quickPayStage,
}

// ---------------------------------------------------------------- login

func loginStage(ctx *service.Ctx, i int, bresp []byte) []byte {
	p := ctx.Page
	base := blockBase(Login)
	switch i {
	case 0: // parse credentials, issue AUTH
		p.Block(base + 1)
		uidStr := ctx.Req.Param("userid")
		passwd := ctx.Req.Param("passwd")
		uid, err := strconv.ParseUint(uidStr, 10, 64)
		if err != nil || passwd == "" {
			ctx.Fail("missing or malformed credentials")
			return nil
		}
		ctx.UserID = uid
		return p.Appendf("AUTH %d %s", uid, passwd)
	case 1: // check AUTH, create session, issue TXNS
		p.Block(base + 2)
		accts, ok := beLines(p, bresp)
		if !ok {
			ctx.Fail("invalid user id or password")
			return nil
		}
		if !ctx.CreateSession(ctx.UserID) {
			return nil
		}
		// Name, email and phone, then one row per account.
		var name string
		for k := 0; k < 3 && accts != ""; k++ {
			if line := accts.Next(); k == 0 {
				name = line
			}
		}
		pageHeadCompact(ctx, "Welcome")
		greeting(ctx, name)
		p.Static("<h1>Login successful</h1>\n<div class=\"notice\">You are now signed on to online banking. ")
		p.Static("Use the navigation bar above to manage your accounts.</div>\n")
		p.Block(base + 3)
		p.Static("<h2>Your accounts</h2>\n<table class=\"data\"><tr><th>Account</th><th>Type</th><th>Balance</th></tr>\n")
		mark := p.Len()
		var f [3]string
		for k := 0; accts != ""; k++ {
			row := accts.Next()
			p.Block(base + 4)
			if splitRow(f[:], row) < 3 {
				continue
			}
			bal, _ := atoi64(f[2])
			cls := ""
			if k%2 == 1 {
				cls = " class=\"alt\""
			}
			p.Dynamicf("<tr%s><td>%s</td><td>%s</td><td class=\"amount\">%s</td></tr>\n", cls, esc(f[0]), esc(f[1]), money(p, bal))
		}
		p.Static("</table>\n")
		p.PadTo(mark + 4*128 + len("</table>\n"))
		return p.Appendf("TXNS %d 0 10", ctx.UserID)
	case 2: // recent activity preview
		p.Block(base + 5)
		lines, ok := beLines(p, bresp)
		if !ok {
			lines = ""
		}
		p.Static("<h2>Recent activity</h2>\n<table class=\"data\"><tr><th>Date</th><th>Description</th><th>Amount</th></tr>\n")
		mark := p.Len()
		emitTxnRows(ctx, base+6, lines, 10)
		p.Static("</table>\n")
		p.PadTo(mark + 10*168 + len("</table>\n"))
		pageFoot(ctx)
		return nil
	}
	panic("login: bad stage")
}

// emitTxnRows renders up to max "date|desc|amount|check" rows.
func emitTxnRows(ctx *service.Ctx, block uint32, rows service.Lines, max int) {
	p := ctx.Page
	var f [4]string
	for k := 0; k < max && rows != ""; k++ {
		row := rows.Next()
		p.Block(block)
		n := splitRow(f[:], row)
		if n < 3 {
			continue
		}
		amt, _ := atoi64(f[2])
		cls := "credit"
		if amt < 0 {
			cls = "debit"
		}
		desc := esc(f[1])
		if n > 3 && f[3] != "0" && f[3] != "" {
			desc = p.Sprintf("%s (check #%s)", desc, esc(f[3]))
		}
		alt := ""
		if k%2 == 1 {
			alt = " class=\"alt\""
		}
		p.Dynamicf("<tr%s><td>%s</td><td>%s</td><td class=\"amount %s\">%s</td></tr>\n", alt, esc(f[0]), desc, cls, money(p, amt))
	}
}

// ------------------------------------------------------ account_summary

func accountSummaryStage(ctx *service.Ctx, i int, bresp []byte) []byte {
	p := ctx.Page
	base := blockBase(AccountSummary)
	switch i {
	case 0:
		p.Block(base + 1)
		return p.Appendf("SUMMARY %d", ctx.UserID)
	case 1:
		p.Block(base + 2)
		lines, ok := beLines(p, bresp)
		if !ok {
			ctx.Fail("backend unavailable")
			return nil
		}
		accts, txns := cutAt(lines, "--")

		pageHead(ctx, "Account Summary")
		greeting(ctx, p.Sprintf("customer %d", ctx.UserID))
		p.Static("<h1>Account Summary</h1>\n<table class=\"data\"><tr><th>Account</th><th>Type</th><th>Balance</th></tr>\n")
		mark := p.Len()
		var total int64
		var f [3]string
		for k := 0; accts != ""; k++ {
			row := accts.Next()
			p.Block(base + 3)
			if splitRow(f[:], row) < 3 {
				continue
			}
			bal, _ := atoi64(f[2])
			total += bal
			alt := ""
			if k%2 == 1 {
				alt = " class=\"alt\""
			}
			p.Dynamicf("<tr%s><td>%s</td><td>%s</td><td class=\"amount\">%s</td></tr>\n", alt, esc(f[0]), esc(f[1]), money(p, bal))
		}
		p.PadTo(mark + 4*128)
		p.Static("<tr><th colspan=\"2\">Total</th><th class=\"amount\">")
		p.Dynamic(money(p, total))
		p.Static("</th></tr></table>\n")
		p.PadTo(mark + 4*128 + 96)

		p.Block(base + 4)
		p.Static("<h2>Recent transactions</h2>\n<table class=\"data\"><tr><th>Date</th><th>Description</th><th>Amount</th></tr>\n")
		mark = p.Len()
		emitTxnRows(ctx, base+5, txns, 20)
		p.Static("</table>\n")
		p.PadTo(mark + 20*168 + len("</table>\n"))
		pageFoot(ctx)
		return nil
	}
	panic("account_summary: bad stage")
}

// ------------------------------------------------------------ add_payee

func addPayeeStage(ctx *service.Ctx, i int, _ []byte) []byte {
	if i != 0 {
		panic("add_payee: bad stage")
	}
	p := ctx.Page
	base := blockBase(AddPayee)
	p.Block(base + 1)
	pageHead(ctx, "Add Payee")
	greeting(ctx, p.Sprintf("customer %d", ctx.UserID))
	p.Static("<h1>Add a payee</h1>\n" +
		"<form class=\"bank\" action=\"/post_payee.php\" method=\"post\">\n" +
		"<p><label for=\"name\">Payee name</label><input type=\"text\" name=\"name\" size=\"40\" maxlength=\"64\"></p>\n" +
		"<p><label for=\"account\">Payee account</label><input type=\"text\" name=\"account\" size=\"20\" maxlength=\"20\"></p>\n" +
		"<p><label for=\"nickname\">Nickname</label><input type=\"text\" name=\"nickname\" size=\"20\"></p>\n" +
		"<p><input class=\"button\" type=\"submit\" value=\"Add payee\"></p>\n</form>\n" +
		"<div class=\"notice\">Payees become available for bill payment immediately. Verify the payee account number against a recent statement; misdirected payments may take up to three business days to recover.</div>\n")
	pageFoot(ctx)
	return nil
}

// ------------------------------------------------------------- bill_pay

func billPayStage(ctx *service.Ctx, i int, bresp []byte) []byte {
	p := ctx.Page
	base := blockBase(BillPay)
	switch i {
	case 0:
		p.Block(base + 1)
		return p.Appendf("PAYEES %d", ctx.UserID)
	case 1:
		p.Block(base + 2)
		payees, ok := beLines(p, bresp)
		if !ok {
			ctx.Fail("backend unavailable")
			return nil
		}
		pageHead(ctx, "Bill Pay")
		greeting(ctx, p.Sprintf("customer %d", ctx.UserID))
		p.Static("<h1>Pay a bill</h1>\n<form class=\"bank\" action=\"/bill_pay_confirm.php\" method=\"post\">\n<p><label for=\"payee\">Payee</label><select name=\"payee\">\n")
		mark := p.Len()
		var f [2]string
		for k := 0; k < 12 && payees != ""; k++ {
			row := payees.Next()
			p.Block(base + 3)
			if splitRow(f[:], row) < 2 {
				continue
			}
			p.Dynamicf("<option value=\"%s\">%s</option>\n", esc(f[1]), esc(f[0]))
		}
		p.PadTo(mark + 12*88)
		p.Static("</select></p>\n" +
			"<p><label for=\"amount\">Amount</label><input type=\"text\" name=\"amount\" size=\"10\"> USD</p>\n" +
			"<p><label for=\"date\">Payment date</label><input type=\"text\" name=\"date\" size=\"12\" value=\"2009-07-01\"></p>\n" +
			"<p><label for=\"memo\">Memo</label><input type=\"text\" name=\"memo\" size=\"40\"></p>\n" +
			"<p><input class=\"button\" type=\"submit\" value=\"Schedule payment\"></p>\n</form>\n" +
			"<div class=\"notice\">Payments scheduled before 4pm Eastern post the same business day. Electronic payees receive funds in 1-2 days; payees paid by mailed check may take 5-7 days.</div>\n")
		pageFoot(ctx)
		return nil
	}
	panic("bill_pay: bad stage")
}

// ----------------------------------------------- bill_pay_status_output

func billPayStatusStage(ctx *service.Ctx, i int, bresp []byte) []byte {
	p := ctx.Page
	base := blockBase(BillPayStatusOutput)
	switch i {
	case 0:
		p.Block(base + 1)
		return p.Appendf("BILLS %d 10", ctx.UserID)
	case 1:
		p.Block(base + 2)
		bills, ok := beLines(p, bresp)
		if !ok {
			ctx.Fail("backend unavailable")
			return nil
		}
		pageHead(ctx, "Bill Pay Status")
		greeting(ctx, p.Sprintf("customer %d", ctx.UserID))
		p.Static("<h1>Bill payment history</h1>\n<table class=\"data\"><tr><th>Confirmation</th><th>Payee</th><th>Amount</th><th>Date</th><th>Status</th></tr>\n")
		mark := p.Len()
		var f [4]string
		for k := 0; bills != ""; k++ {
			row := bills.Next()
			p.Block(base + 3)
			if splitRow(f[:], row) < 4 {
				continue
			}
			amt, _ := atoi64(f[2])
			alt := ""
			if k%2 == 1 {
				alt = " class=\"alt\""
			}
			p.Dynamicf("<tr%s><td>%s</td><td>%s</td><td class=\"amount\">%s</td><td>%s</td><td>Processed</td></tr>\n",
				alt, esc(f[0]), esc(f[1]), money(p, amt), esc(f[3]))
		}
		p.Static("</table>\n")
		p.PadTo(mark + 10*160 + len("</table>\n"))
		p.Static("<div class=\"notice\">Status reflects payments initiated through online bill pay in the last 90 days. Contact support with the confirmation number to dispute a payment.</div>\n")
		pageFoot(ctx)
		return nil
	}
	panic("bill_pay_status: bad stage")
}

// ------------------------------------------------------- change_profile

func changeProfileStage(ctx *service.Ctx, i int, bresp []byte) []byte {
	p := ctx.Page
	base := blockBase(ChangeProfile)
	switch i {
	case 0:
		p.Block(base + 1)
		return p.Appendf("PROFILE %d", ctx.UserID)
	case 1:
		p.Block(base + 2)
		lines, ok := beLines(p, bresp)
		var prof [5]string // name, address, city, email, phone
		if !ok || service.Split(prof[:], string(lines), '\n') < 5 {
			ctx.Fail("backend unavailable")
			return nil
		}
		pageHead(ctx, "Change Profile")
		greeting(ctx, prof[0])
		p.Static("<h1>Update your contact information</h1>\n<form class=\"bank\" action=\"/post_profile.php\" method=\"post\">\n")
		mark := p.Len()
		for k, f := range profileInputs {
			p.Block(base + 3)
			p.Static("<p><label>")
			p.Static(f.label)
			p.Static(f.input)
			p.Dynamic(esc(prof[k]))
			p.Static("\"></p>\n")
		}
		p.PadTo(mark + 5*160)
		p.Static("<p><input class=\"button\" type=\"submit\" value=\"Save changes\"></p>\n</form>\n" +
			"<div class=\"notice\">Address changes take effect immediately for statements and cards. We may contact you to verify significant changes to your profile.</div>\n")
		pageFoot(ctx)
		return nil
	}
	panic("change_profile: bad stage")
}

// profileInputs labels change_profile's five fields and opens each one's
// input, in profile line order.
var profileInputs = func() (in [5]struct{ label, input string }) {
	for k, f := range [5][2]string{
		{"Full name", "name"}, {"Street address", "address"}, {"City", "city"},
		{"Email", "email"}, {"Phone", "phone"},
	} {
		in[k].label = f[0]
		in[k].input = "</label><input type=\"text\" size=\"40\" name=\"" + f[1] + "\" value=\""
	}
	return in
}()

// ----------------------------------------------------- check_detail_html

func checkDetailStage(ctx *service.Ctx, i int, bresp []byte) []byte {
	p := ctx.Page
	base := blockBase(CheckDetailHTML)
	switch i {
	case 0:
		p.Block(base + 1)
		cn, err := strconv.Atoi(ctx.Req.Param("check_no"))
		if err != nil || cn <= 0 {
			ctx.Fail("missing check number")
			return nil
		}
		return p.Appendf("CHECKINFO %d %d", ctx.UserID, cn)
	case 1:
		p.Block(base + 2)
		body, ok := beLines(p, bresp)
		var lines [3]string // date, amount, payee
		if !ok || service.Split(lines[:], string(body), '\n') < 3 {
			ctx.Fail("check not found")
			return nil
		}
		amt, _ := atoi64(lines[1])
		pageHead(ctx, "Check Detail")
		greeting(ctx, p.Sprintf("customer %d", ctx.UserID))
		p.Static("<h1>Cleared check detail</h1>\n<table class=\"data\">\n")
		mark := p.Len()
		p.Dynamicf("<tr><th>Check number</th><td>%s</td></tr>\n<tr><th>Date cleared</th><td>%s</td></tr>\n<tr><th>Amount</th><td class=\"amount\">%s</td></tr>\n<tr><th>Payee</th><td>%s</td></tr>\n",
			esc(ctx.Req.Param("check_no")), esc(lines[0]), money(p, amt), esc(lines[2]))
		p.PadTo(mark + 320)
		p.Static("</table>\n<h2>Check image</h2>\n<div class=\"notice\">Front and back images are rendered by the check_detail_images request, which is disk-bound and served separately (see paper &sect;5.1).</div>\n<pre class=\"checkimg\">\n+--------------------------------------------------+\n|  SPECweb Community Bank           No. ")
		p.Dynamicf("%-10s", esc(ctx.Req.Param("check_no")))
		p.Static("|\n|  Pay to the order of ____________________________ |\n|  Memo ____________________   Signature __________ |\n+--------------------------------------------------+\n</pre>\n")
		pageFoot(ctx)
		return nil
	}
	panic("check_detail: bad stage")
}

// ----------------------------------------------------------- order_check

func orderCheckStage(ctx *service.Ctx, i int, bresp []byte) []byte {
	p := ctx.Page
	base := blockBase(OrderCheck)
	switch i {
	case 0:
		p.Block(base + 1)
		return p.Appendf("ACCTS %d", ctx.UserID)
	case 1:
		p.Block(base + 2)
		accts, ok := beLines(p, bresp)
		if !ok {
			ctx.Fail("backend unavailable")
			return nil
		}
		pageHead(ctx, "Order Checks")
		greeting(ctx, p.Sprintf("customer %d", ctx.UserID))
		p.Static("<h1>Order checks</h1>\n<form class=\"bank\" action=\"/place_check_order.php\" method=\"post\">\n<p><label>Funding account</label><select name=\"account\">\n")
		mark := p.Len()
		var f [2]string
		for accts != "" {
			row := accts.Next()
			p.Block(base + 3)
			if splitRow(f[:], row) < 2 {
				continue
			}
			p.Dynamicf("<option value=\"%s\">%s (%s)</option>\n", esc(f[0]), esc(f[0]), esc(f[1]))
		}
		p.PadTo(mark + 4*104)
		p.Static("</select></p>\n" +
			"<p><label>Style</label><select name=\"style\"><option value=\"standard\">Standard</option><option value=\"premium\">Premium duplicate</option></select></p>\n" +
			"<p><label>Quantity</label><select name=\"quantity\"><option>100</option><option>200</option><option>400</option></select></p>\n" +
			"<p><input class=\"button\" type=\"submit\" value=\"Continue\"></p>\n</form>\n" +
			"<div class=\"notice\">Standard checks print in 3-5 business days; premium duplicate checks include carbonless copies and ship with tracking. Pricing is confirmed on the next page before your order is placed.</div>\n")
		pageFoot(ctx)
		return nil
	}
	panic("order_check: bad stage")
}

// ----------------------------------------------------- place_check_order

func placeCheckOrderStage(ctx *service.Ctx, i int, bresp []byte) []byte {
	p := ctx.Page
	base := blockBase(PlaceCheckOrder)
	switch i {
	case 0:
		p.Block(base + 1)
		style := ctx.Req.Param("style")
		if style != "standard" && style != "premium" {
			ctx.Fail("unknown check style")
			return nil
		}
		qty, err := strconv.Atoi(ctx.Req.Param("quantity"))
		if err != nil || qty <= 0 || qty > 1000 {
			ctx.Fail("bad quantity")
			return nil
		}
		return p.Appendf("PLACEORDER %d %s %d", ctx.UserID, style, qty)
	case 1:
		p.Block(base + 2)
		body, ok := beLines(p, bresp)
		var lines [3]string // order id, confirmation, price
		if !ok || service.Split(lines[:], string(body), '\n') < 3 {
			ctx.Fail("order rejected")
			return nil
		}
		price, _ := atoi64(lines[2])
		pageHead(ctx, "Order Placed")
		greeting(ctx, p.Sprintf("customer %d", ctx.UserID))
		p.Static("<h1>Your check order has been placed</h1>\n<table class=\"data\">\n")
		mark := p.Len()
		p.Dynamicf("<tr><th>Order id</th><td>%s</td></tr>\n<tr><th>Confirmation</th><td>%s</td></tr>\n<tr><th>Style</th><td>%s</td></tr>\n<tr><th>Quantity</th><td>%s</td></tr>\n<tr><th>Total charged</th><td class=\"amount\">%s</td></tr>\n",
			esc(lines[0]), esc(lines[1]), esc(ctx.Req.Param("style")), esc(ctx.Req.Param("quantity")), money(p, price))
		p.PadTo(mark + 420)
		p.Static("</table>\n<div class=\"notice\">Keep the confirmation number for your records. The charge appears on your next statement as CHECK ORDER. Orders may be cancelled within one hour by phone.</div>\n")
		pageFoot(ctx)
		return nil
	}
	panic("place_check_order: bad stage")
}

// ------------------------------------------------------------ post_payee

func postPayeeStage(ctx *service.Ctx, i int, bresp []byte) []byte {
	p := ctx.Page
	base := blockBase(PostPayee)
	switch i {
	case 0:
		p.Block(base + 1)
		name := strings.TrimSpace(ctx.Req.Param("name"))
		acct := strings.TrimSpace(ctx.Req.Param("account"))
		if name == "" || acct == "" {
			ctx.Fail("payee name and account are required")
			return nil
		}
		return p.Appendf("ADDPAYEE %d %s %s",
			ctx.UserID, strings.ReplaceAll(name, " ", "_"), strings.ReplaceAll(acct, " ", "_"))
	case 1:
		p.Block(base + 2)
		payees, ok := beLines(p, bresp)
		if !ok {
			ctx.Fail("backend unavailable")
			return nil
		}
		pageHead(ctx, "Payee Added")
		greeting(ctx, p.Sprintf("customer %d", ctx.UserID))
		p.Static("<h1>Payee added</h1>\n<div class=\"notice\">The payee below was added to your bill-pay list.</div>\n")
		mark := p.Len()
		p.Dynamicf("<p>Newest payee: <b>%s</b></p>\n", esc(ctx.Req.Param("name")))
		p.PadTo(mark + 96)
		p.Static("<h2>All payees</h2>\n<table class=\"data\"><tr><th>Payee</th><th>Account</th></tr>\n")
		mark = p.Len()
		var f [2]string
		for k := 0; k < 16 && payees != ""; k++ {
			row := payees.Next()
			p.Block(base + 3)
			if splitRow(f[:], row) < 2 {
				continue
			}
			alt := ""
			if k%2 == 1 {
				alt = " class=\"alt\""
			}
			p.Dynamicf("<tr%s><td>%s</td><td>%s</td></tr>\n", alt, esc(f[0]), esc(f[1]))
		}
		p.Static("</table>\n")
		p.PadTo(mark + 16*104 + len("</table>\n"))
		pageFoot(ctx)
		return nil
	}
	panic("post_payee: bad stage")
}

// --------------------------------------------------------- post_transfer

func postTransferStage(ctx *service.Ctx, i int, bresp []byte) []byte {
	p := ctx.Page
	base := blockBase(PostTransfer)
	switch i {
	case 0:
		p.Block(base + 1)
		from, err1 := strconv.Atoi(ctx.Req.Param("from"))
		to, err2 := strconv.Atoi(ctx.Req.Param("to"))
		cents, ok := parseMoney(ctx.Req.Param("amount"))
		if err1 != nil || err2 != nil || !ok {
			ctx.Fail("malformed transfer request")
			return nil
		}
		return p.Appendf("TRANSFER %d %d %d %d", ctx.UserID, from, to, cents)
	case 1:
		p.Block(base + 2)
		lines, ok := beLines(p, bresp)
		pageHead(ctx, "Transfer Result")
		greeting(ctx, p.Sprintf("customer %d", ctx.UserID))
		if !ok {
			// Declined transfers are a normal page, not a request error.
			p.Block(base + 3)
			p.Static("<h1>Transfer declined</h1>\n<p class=\"error\">")
			p.Dynamic(esc(strings.TrimPrefix(strings.ReplaceAll(string(lines), "\n", " "), "FAIL ")))
			p.Static("</p>\n<p>No funds were moved. Review the balances on your <a href=\"/account_summary.php\">account summary</a> and try again.</p>\n")
			ctx.Page.PadTo(ctx.Page.Len() + 64)
		} else {
			p.Block(base + 4)
			var bal [2]string // source, destination
			service.Split(bal[:], string(lines), '\n')
			fromBal, _ := atoi64(bal[0])
			toBal, _ := atoi64(bal[1])
			p.Static("<h1>Transfer complete</h1>\n<table class=\"data\">\n")
			mark := p.Len()
			p.Dynamicf("<tr><th>Amount moved</th><td class=\"amount\">%s</td></tr>\n<tr><th>Source balance</th><td class=\"amount\">%s</td></tr>\n<tr><th>Destination balance</th><td class=\"amount\">%s</td></tr>\n",
				esc(ctx.Req.Param("amount")), money(p, fromBal), money(p, toBal))
			p.PadTo(mark + 280)
			p.Static("</table>\n<div class=\"notice\">Transfers between your own accounts post immediately.</div>\n")
		}
		pageFoot(ctx)
		return nil
	}
	panic("post_transfer: bad stage")
}

// parseMoney converts "12.34" or "12" to cents.
func parseMoney(s string) (int64, bool) {
	s = strings.TrimSpace(strings.TrimPrefix(s, "$"))
	if s == "" {
		return 0, false
	}
	dollars, cents := s, "0"
	if dot := strings.IndexByte(s, '.'); dot >= 0 {
		dollars, cents = s[:dot], s[dot+1:]
		if len(cents) > 2 {
			return 0, false
		}
		for len(cents) < 2 {
			cents += "0"
		}
	} else {
		cents = "00"
	}
	d, err1 := strconv.ParseInt(dollars, 10, 64)
	c, err2 := strconv.ParseInt(cents, 10, 64)
	if err1 != nil || err2 != nil || d < 0 || c < 0 {
		return 0, false
	}
	return d*100 + c, true
}

// --------------------------------------------------------------- profile

func profileStage(ctx *service.Ctx, i int, bresp []byte) []byte {
	p := ctx.Page
	base := blockBase(Profile)
	switch i {
	case 0:
		p.Block(base + 1)
		return p.Appendf("PROFILE %d", ctx.UserID)
	case 1:
		p.Block(base + 2)
		body, ok := beLines(p, bresp)
		var lines [5]string // name, address, city, email, phone
		if !ok || service.Split(lines[:], string(body), '\n') < 5 {
			ctx.Fail("backend unavailable")
			return nil
		}
		pageHead(ctx, "Profile")
		greeting(ctx, lines[0])
		p.Static("<h1>Your profile</h1>\n<table class=\"data\">\n")
		mark := p.Len()
		rows := []struct{ label, val string }{
			{"Full name", lines[0]}, {"Street address", lines[1]}, {"City", lines[2]},
			{"Email", lines[3]}, {"Phone", lines[4]},
		}
		for _, r := range rows {
			p.Block(base + 3)
			p.Static("<tr><th>")
			p.Static(r.label)
			p.Static("</th><td>")
			p.Dynamic(esc(r.val))
			p.Static("</td></tr>\n")
		}
		p.PadTo(mark + 5*110)
		p.Static("</table>\n<h2>Preferences</h2>\n" +
			"<table class=\"data\">\n<tr><th>Paperless statements</th><td>Enabled</td></tr>\n" +
			"<tr><th>Alert channel</th><td>Email</td></tr>\n<tr><th>Statement cycle</th><td>Monthly, 1st</td></tr>\n</table>\n" +
			"<div class=\"notice\">To change contact information use <a href=\"/change_profile.php\">Settings</a>. Some changes require re-verification of your identity.</div>\n")
		pageFoot(ctx)
		return nil
	}
	panic("profile: bad stage")
}

// -------------------------------------------------------------- transfer

func transferStage(ctx *service.Ctx, i int, bresp []byte) []byte {
	p := ctx.Page
	base := blockBase(Transfer)
	switch i {
	case 0:
		p.Block(base + 1)
		return p.Appendf("ACCTS %d", ctx.UserID)
	case 1:
		p.Block(base + 2)
		accts, ok := beLines(p, bresp)
		if !ok {
			ctx.Fail("backend unavailable")
			return nil
		}
		pageHead(ctx, "Transfer Funds")
		greeting(ctx, p.Sprintf("customer %d", ctx.UserID))
		p.Static("<h1>Transfer between your accounts</h1>\n<form class=\"bank\" action=\"/post_transfer.php\" method=\"post\">\n")
		var f [3]string
		for _, sel := range [2][2]string{
			{"From", " account</label><select name=\"from\">\n"},
			{"To", " account</label><select name=\"to\">\n"},
		} {
			p.Block(base + 3)
			p.Static("<p><label>")
			p.Static(sel[0])
			p.Static(sel[1])
			mark := p.Len()
			for k, rows := 0, accts; rows != ""; k++ {
				row := rows.Next()
				p.Block(base + 4)
				if splitRow(f[:], row) < 3 {
					continue
				}
				bal, _ := atoi64(f[2])
				p.Dynamicf("<option value=\"%d\">%s %s — %s</option>\n", k, esc(f[1]), esc(f[0]), money(p, bal))
			}
			p.PadTo(mark + 4*104)
			p.Static("</select></p>\n")
		}
		p.Static("<p><label>Amount</label><input type=\"text\" name=\"amount\" size=\"10\"> USD</p>\n" +
			"<p><input class=\"button\" type=\"submit\" value=\"Transfer\"></p>\n</form>\n" +
			"<div class=\"notice\">Six withdrawals per statement cycle are permitted from savings accounts under Regulation D; further transfers may incur a fee.</div>\n")
		pageFoot(ctx)
		return nil
	}
	panic("transfer: bad stage")
}

// ---------------------------------------------------------------- logout

func logoutStage(ctx *service.Ctx, i int, _ []byte) []byte {
	if i != 0 {
		panic("logout: bad stage")
	}
	p := ctx.Page
	base := blockBase(Logout)
	p.Block(base + 1)
	ctx.DeleteSession()
	pageHead(ctx, "Signed Off")
	p.Static("<h1>You have signed off</h1>\n<div class=\"notice\">For your security, close your browser window to clear any cached account pages.</div>\n")
	mark := p.Len()
	p.Dynamicf("<p>Session <tt>%016x</tt> for customer %d has ended.</p>\n", uint64(ctx.SID), ctx.UserID)
	p.PadTo(mark + 128)
	p.Block(base + 2)
	p.Static("<h2>Thank you for banking with us</h2>\n<p>Review today's rates and product offers below, or <a href=\"/login.php\">sign on again</a>.</p>\n")
	mark = p.Len()
	prev := p.LastBlock()
	if ctx.UserID%4 == 0 {
		p.Block(base + 3)
		p.Static("<p class=\"notice\">Feedback survey: tell us about today's session and be entered in a drawing.</p>\n")
	}
	p.Reconverge(prev)
	p.PadTo(mark + 108)
	pageFoot(ctx)
	return nil
}

// -------------------------------------------------------------- quick_pay
//
// quick_pay is the extension request (§5.1): pay up to three payees in
// one submission. Each payee costs one backend round trip, so the number
// of process stages depends on the request's data — the variable kernel
// launches that made the paper skip it. Requests with fewer payees set
// ctx.Done early and drop out of the cohort's later kernels.

type quickPayState struct {
	payees  []string
	amounts []int64
	confs   []string
}

func quickPayStage(ctx *service.Ctx, i int, bresp []byte) []byte {
	p := ctx.Page
	base := blockBase(QuickPay)
	var st *quickPayState
	if i == 0 {
		p.Block(base + 1)
		st = &quickPayState{}
		for k := 1; k <= 3; k++ {
			name := strings.TrimSpace(ctx.Req.Param(p.Sprintf("payee%d", k)))
			amt, ok := parseMoney(ctx.Req.Param(p.Sprintf("amount%d", k)))
			if name == "" {
				continue
			}
			if !ok {
				ctx.Fail(fmt.Sprintf("bad amount for payee %d", k))
				return nil
			}
			st.payees = append(st.payees, name)
			st.amounts = append(st.amounts, amt)
		}
		if len(st.payees) == 0 {
			ctx.Fail("quick pay needs at least one payee")
			return nil
		}
		ctx.Data = st
	} else {
		st = ctx.Data.(*quickPayState)
		// Record the confirmation of the payment that just completed.
		p.Block(base + 2)
		lines, ok := beLines(p, bresp)
		if !ok || lines == "" {
			ctx.Fail("payment rejected")
			return nil
		}
		st.confs = append(st.confs, lines.Next())
	}
	if next := len(st.confs); next < len(st.payees) {
		// Another payment to make: another backend round trip.
		p.Block(base + 3)
		return p.Appendf("BILLPAY %d %s %d 2009-07-01",
			ctx.UserID, strings.ReplaceAll(st.payees[next], " ", "_"), st.amounts[next])
	}

	// All payees paid: render and finish (possibly before stage max).
	p.Block(base + 4)
	pageHead(ctx, "Quick Pay")
	greeting(ctx, p.Sprintf("customer %d", ctx.UserID))
	p.Static("<h1>Quick pay complete</h1>\n<table class=\"data\"><tr><th>Payee</th><th>Amount</th><th>Confirmation</th></tr>\n")
	mark := p.Len()
	for k := range st.payees {
		p.Block(base + 5)
		alt := ""
		if k%2 == 1 {
			alt = " class=\"alt\""
		}
		p.Dynamicf("<tr%s><td>%s</td><td class=\"amount\">%s</td><td>%s</td></tr>\n",
			alt, esc(st.payees[k]), money(p, st.amounts[k]), esc(st.confs[k]))
	}
	p.Static("</table>\n")
	p.PadTo(mark + 3*140 + len("</table>\n"))
	p.Static("<div class=\"notice\">All payments were scheduled in a single submission. Individual confirmations appear on your bill pay status page.</div>\n")
	pageFoot(ctx)
	ctx.Done = true
	return nil
}
