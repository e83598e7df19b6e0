package rhythm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"rhythm/internal/session"
)

// TestHostRouteConcurrentWithCohorts: one shard group's state served by
// both routes at once. Under an explicit crossover rate, account_summary
// — hammered by every connection — crosses it and forms cohorts on the
// device, while paced Besim writes (post_transfer) stay below it and
// execute on the host route, inline on the connection handlers, against
// the same group (rhythm.New runs one device, so one group). Each
// connection is one user; its pages must be byte-identical to the scalar
// reference replaying that connection's sequence, and the closing
// account_summary pins the final balances, so every write was applied
// exactly once.
func TestHostRouteConcurrentWithCohorts(t *testing.T) {
	const conns = 8
	fastTick := func(o *cohortOptions) { o.AdaptTick = 10 * time.Millisecond }
	dev := startNew(t, WithCrossoverRate(200), fastTick).(*cohortServer)

	type exchange struct {
		raw  string
		resp []byte
	}
	transcripts := make([][]exchange, conns)
	stop := make(chan struct{})
	writes := make(chan struct{}, 1) // one token per pacing tick: ~20 writes/s in all
	var wg sync.WaitGroup
	for i, uid := range usersInDistinctBuckets(conns) {
		conn := dialT(t, dev.Addr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := bufio.NewReader(conn)
			send := func(raw string) []byte {
				if _, err := io.WriteString(conn, raw); err != nil {
					t.Errorf("conn %d: %v", i, err)
					return nil
				}
				resp, err := readResponse(r)
				if err != nil || !bytes.HasPrefix(resp, []byte("HTTP/1.1 200")) {
					t.Errorf("conn %d: %.80q answered %.80q (%v)", i, raw, resp, err)
					return nil
				}
				transcripts[i] = append(transcripts[i], exchange{raw, resp})
				return resp
			}
			_, pw := dev.Seed(uid)
			login := send(rawPost("/login.php", "", fmt.Sprintf("userid=%d&passwd=%s", uid, pw)))
			if login == nil {
				return
			}
			_, after, _ := strings.Cut(string(login), "Set-Cookie: ")
			cookie, _, _ := strings.Cut(after, "\r\n")
			summary := rawGet("/account_summary.php", cookie)
			for n := 0; ; n++ {
				select {
				case <-stop:
					send(summary) // the final balances
					return
				case <-writes:
					if send(rawPost("/post_transfer.php", cookie, fmt.Sprintf("from=0&to=1&amount=1.%02d", n%100))) == nil {
						return
					}
				default:
				}
				if send(summary) == nil {
					return
				}
			}
		}()
	}

	// Run until both routes have carried enough traffic side by side.
	pace := time.NewTicker(50 * time.Millisecond)
	defer pace.Stop()
	var cohorts, hostWrites uint64
	for deadline := time.Now().Add(30 * time.Second); cohorts < 20 || hostWrites < 16; {
		if time.Now().After(deadline) {
			t.Errorf("after 30s: %d account_summary cohorts, %d host-routed transfers; want 20 and 16", cohorts, hostWrites)
			break
		}
		<-pace.C
		select {
		case writes <- struct{}{}:
		default:
		}
		st := dev.Stats()
		cohorts = st.Types["banking/account_summary"].Cohorts
		hostWrites = st.Types["banking/post_transfer"].HostRequests
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	ref := newReference(1 << 16) // rhythm.New's session geometry
	for i, seq := range transcripts {
		for j, ex := range seq {
			if want := ref.answer([]byte(ex.raw)); !bytes.Equal(want, ex.resp) {
				t.Fatalf("conn %d exchange %d (%.60q): server answered\n%.300q\nreference replay answered\n%.300q",
					i, j, ex.raw, ex.resp, want)
			}
		}
	}
}

// usersInDistinctBuckets picks n user ids whose sessions land in
// distinct session buckets, so the session ids their logins create do
// not depend on the order concurrent logins commit in.
func usersInDistinctBuckets(n int) []uint64 {
	used := make(map[int]bool)
	var uids []uint64
	for uid := uint64(9100); len(uids) < n; uid++ {
		if b := session.BucketFor(uid, 256); !used[b] {
			used[b] = true
			uids = append(uids, uid)
		}
	}
	return uids
}
