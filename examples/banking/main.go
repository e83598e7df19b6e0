// Banking demo: start the real TCP server, then act as a SPECWeb-style
// client — log in, read the account summary, pay a bill, transfer funds,
// and log out — printing what each page returned.
//
// Run with: go run ./examples/banking
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"strconv"
	"strings"

	"rhythm"
)

func main() {
	// The conventional-server baseline: the one server pinned to the host
	// route.
	srv, err := rhythm.New("127.0.0.1:0", rhythm.WithHostExecution())
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Drain(context.Background())
	go srv.Serve()
	addr := srv.Addr().String()
	uid, pw := srv.Seed(90210)
	fmt.Printf("banking demo against http://%s (userid=%d)\n\n", addr, uid)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	// 1. Log in.
	body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
	send(conn, "POST /login.php HTTP/1.1\r\nHost: demo\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	status, hdrs, page := read(r)
	cookie := hdrs["Set-Cookie"]
	report("login", status, page, "Login successful")
	fmt.Printf("   session cookie: %s\n", cookie)

	// 2. Account summary.
	send(conn, "GET /account_summary.php HTTP/1.1\r\nHost: demo\r\nCookie: %s\r\n\r\n", cookie)
	status, _, page = read(r)
	report("account_summary", status, page, "Account Summary")
	for _, line := range grep(page, "<td class=\"amount\">", 3) {
		fmt.Printf("   %s\n", line)
	}

	// 3. Bill-pay form (payee dropdown comes from the backend).
	send(conn, "GET /bill_pay.php HTTP/1.1\r\nHost: demo\r\nCookie: %s\r\n\r\n", cookie)
	status, _, page = read(r)
	report("bill_pay", status, page, "Pay a bill")

	// 4. Transfer a dollar between the first two accounts.
	form := "from=0&to=1&amount=1.00"
	send(conn, "POST /post_transfer.php HTTP/1.1\r\nHost: demo\r\nCookie: %s\r\nContent-Length: %d\r\n\r\n%s",
		cookie, len(form), form)
	status, _, page = read(r)
	report("post_transfer", status, page, "Transfer")

	// 5. Log out.
	send(conn, "GET /logout.php HTTP/1.1\r\nHost: demo\r\nCookie: %s\r\n\r\n", cookie)
	status, _, page = read(r)
	report("logout", status, page, "signed off")

	fmt.Printf("\nserver handled %d requests; every page is the same fixed-size,\n", srv.Snapshot().Served())
	fmt.Println("whitespace-aligned response the SIMT kernels produce (see DESIGN.md).")
}

func send(conn net.Conn, format string, args ...any) {
	if _, err := fmt.Fprintf(conn, format, args...); err != nil {
		log.Fatal(err)
	}
}

func report(step string, status int, page, marker string) {
	ok := "ok"
	if status != 200 || !strings.Contains(page, marker) {
		ok = "FAILED"
	}
	fmt.Printf("%-18s status=%d %s (%d-byte page)\n", step, status, ok, len(page))
}

// grep returns up to max lines containing needle.
func grep(page, needle string, max int) []string {
	var out []string
	for _, line := range strings.Split(page, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, strings.TrimSpace(line))
			if len(out) == max {
				break
			}
		}
	}
	return out
}

// read consumes one HTTP response.
func read(r *bufio.Reader) (int, map[string]string, string) {
	statusLine, err := r.ReadString('\n')
	if err != nil {
		log.Fatal(err)
	}
	var proto string
	var status int
	fmt.Sscanf(statusLine, "%s %d", &proto, &status)
	hdrs := map[string]string{}
	cl := 0
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			log.Fatal(err)
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		k, v, _ := strings.Cut(line, ":")
		hdrs[k] = strings.TrimSpace(v)
		if strings.EqualFold(k, "Content-Length") {
			cl, _ = strconv.Atoi(strings.TrimSpace(v))
		}
	}
	body := make([]byte, cl)
	if _, err := io.ReadFull(r, body); err != nil {
		log.Fatal(err)
	}
	return status, hdrs, string(body)
}
