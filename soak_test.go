//go:build soak

package rhythm

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rhythm/internal/banking"
)

// The soak tests run a server far past what its session table holds and
// its state would grow to, and hold it to two things: no request fails,
// and the live heap at the end is within 10 % of the live heap a tenth
// of the way in. Run them with `go test -tags soak -run Soak .` (about
// five minutes on two cores).

// liveHeap collects twice (pooled and finalizer-guarded objects survive
// one cycle) and reports the bytes of live objects.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func checkFlat(t *testing.T, tenth, end uint64) {
	t.Helper()
	t.Logf("live heap %.1f MB a tenth of the way, %.1f MB at the end", float64(tenth)/(1<<20), float64(end)/(1<<20))
	if float64(end) > 1.1*float64(tenth) {
		t.Fatalf("live heap grew %.1f %% from a tenth of the way to the end", 100*(float64(end)/float64(tenth)-1))
	}
}

// soakBatch is n requests in the Table 2 proportions, logouts generated
// first so that the generator retires their sessions before any other
// request of the batch names one, then shuffled.
func soakBatch(s *SimServer, rng *rand.Rand, n int) [][]byte {
	var total float64
	for _, rt := range banking.CoreTypes() {
		total += banking.Specs[rt].MixPercent
	}
	reqs, _ := s.GenerateIsolated(banking.Logout.String(), int(banking.Specs[banking.Logout].MixPercent/total*float64(n)))
	for _, rt := range banking.CoreTypes() {
		if rt != banking.Logout {
			more, _ := s.GenerateIsolated(rt.String(), int(banking.Specs[rt].MixPercent/total*float64(n)))
			reqs = append(reqs, more...)
		}
	}
	rest, _ := s.GenerateIsolated(banking.AccountSummary.String(), n-len(reqs))
	reqs = append(reqs, rest...)
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// TestSoakSimServer serves 10M virtual requests of the Table 2 mix on
// the benchmark's sim_offline geometry: its table fills after about
// 230K requests and reclaims from then on.
func TestSoakSimServer(t *testing.T) {
	const total, batch = 10_000_000, 4096
	s := NewSimServer(Options{Platform: TitanB, CohortSize: 1024, MaxCohorts: 4, Seed: 1})
	rng := rand.New(rand.NewSource(1))
	var tenth uint64
	for served := 0; served < total; served += batch {
		if served >= total/10 && tenth == 0 {
			tenth = liveHeap()
		}
		st := s.Serve(soakBatch(s, rng, batch))
		if st.Completed != batch || st.Errors+st.ParseErrors+st.ValidationFailures != 0 {
			t.Fatalf("after %d requests: %d of %d completed, %d errors, %d parse errors, %d validation failures",
				served, st.Completed, batch, st.Errors, st.ParseErrors, st.ValidationFailures)
		}
	}
	end := liveHeap()
	runtime.KeepAlive(s)
	checkFlat(t, tenth, end)
}

// TestSoakSocketServer sends 2M requests over four keep-alive
// connections to a host-pinned server: 30 % logins, each leaving the
// user's previous session behind, 2 % new payees and the rest account
// summaries on the user's latest session. Its 263K-node table fills
// twice over.
func TestSoakSocketServer(t *testing.T) {
	const total, conns, usersPerConn = 2_000_000, 4, 64
	srv := startNew(t, WithHostExecution())
	var (
		mu     sync.Mutex
		served int
		tenth  uint64
	)
	// progress counts a request and takes the tenth-way reading once.
	progress := func() bool {
		mu.Lock()
		defer mu.Unlock()
		served++
		if served == total/10 {
			tenth = liveHeap()
		}
		return served <= total
	}
	drive := func(c int) error {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			return err
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		rng := rand.New(rand.NewSource(int64(c)))
		cookies := make([]string, usersPerConn)
		for progress() {
			u := rng.Intn(usersPerConn)
			uid, pw := srv.Seed(uint64(1000*(c+1) + u))
			var want string
			switch x := rng.Intn(100); {
			case x < 30 || cookies[u] == "":
				body := fmt.Sprintf("userid=%d&passwd=%s", uid, pw)
				fmt.Fprintf(conn, "POST /login.php HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
				want = "Login successful"
			case x < 32:
				body := fmt.Sprintf("name=Vendor%04d&account=P-%06d", rng.Intn(10000), rng.Intn(1000000))
				fmt.Fprintf(conn, "POST /post_payee.php HTTP/1.1\r\nHost: t\r\nCookie: %s\r\nContent-Length: %d\r\n\r\n%s", cookies[u], len(body), body)
				want = "Payee added"
			default:
				fmt.Fprintf(conn, "GET /account_summary.php HTTP/1.1\r\nHost: t\r\nCookie: %s\r\n\r\n", cookies[u])
				want = "Account Summary"
			}
			status, hdrs, page := readTestResponse(t, r)
			if status != 200 || !strings.Contains(page, want) {
				return fmt.Errorf("user %d: status %d, page without %q", uid, status, want)
			}
			if c := hdrs["Set-Cookie"]; strings.HasPrefix(c, "MY_ID=") {
				cookies[u] = c
			}
		}
		return nil
	}
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		go func(c int) { errs <- drive(c) }(c)
	}
	for c := 0; c < conns; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	checkFlat(t, tenth, liveHeap())
}
