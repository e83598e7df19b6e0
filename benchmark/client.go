package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// client is one closed-loop caller on one keep-alive connection: it
// sends the next request only after the previous response has been read
// to its last byte. Its steady state allocates nothing per request (the
// sample log grows by amortised doubling), so runtime.allocs_per_req
// measures the server; a test holds it to at most one.
type client struct {
	idx  int
	conn net.Conn
	r    *bufio.Reader
	jar  *cookieJar
	cor  *corpus
	next int // position in cor.loop
	// budget, when positive, ends run after that many requests (the
	// allocation calibration); the timed windows run to their deadline.
	budget int

	samples []sample
	spans   *spanBuf // nil unless tracing
	failed  int64    // non-200, short read, dead connection, missing cookie
	writes  int64    // write requests completed
}

func dialClient(addr string, idx int, cor *corpus) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("client %d: %w", idx, err)
	}
	return &client{
		idx:  idx,
		conn: conn,
		r:    bufio.NewReaderSize(conn, 64<<10),
		jar:  newJar(len(cor.uids)),
		cor:  cor,
	}, nil
}

func (c *client) close() { c.conn.Close() }

var (
	contentLength = []byte("content-length:")
	errStatus     = errors.New("non-200 status")
	errNoCookie   = errors.New("login response issued no session cookie")
)

// contentLengthOf parses a Content-Length header line in place (the
// servers pad the value with spaces), reporting false for other lines.
func contentLengthOf(line []byte) (n int, ok bool) {
	if len(line) <= len(contentLength) || !bytes.EqualFold(line[:len(contentLength)], contentLength) {
		return 0, false
	}
	for _, ch := range line[len(contentLength):] {
		if ch >= '0' && ch <= '9' {
			n = n*10 + int(ch-'0')
		}
	}
	return n, true
}

// exchange sends one entry and consumes its response. With capture set
// the whole response is appended to *capture (the correctness gate);
// otherwise the body is discarded unread. It reports the HTTP status.
func (c *client) exchange(e *entry, capture *[]byte) (int, error) {
	if _, err := c.conn.Write(c.jar.patch(e)); err != nil {
		return 0, err
	}
	status, length, first := 0, -1, true
	needCookie := e.kind == kindLogin
	for {
		line, err := c.r.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if capture != nil {
			*capture = append(*capture, line...)
		}
		if first {
			first = false
			if len(line) < 12 {
				return 0, fmt.Errorf("short status line %q", line)
			}
			status = int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
			continue
		}
		if len(line) <= 2 {
			break
		}
		if n, ok := contentLengthOf(line); ok {
			length = n
		} else if needCookie && c.jar.learn(e, line) {
			needCookie = false
		}
	}
	if length < 0 {
		return status, errors.New("response without Content-Length")
	}
	if needCookie {
		return status, errNoCookie
	}
	if capture != nil {
		at := len(*capture)
		*capture = append(*capture, make([]byte, length)...)
		_, err := io.ReadFull(c.r, (*capture)[at:])
		return status, err
	}
	_, err := c.r.Discard(length)
	return status, err
}

// ioTimeout bounds every read and write: a server that stops answering
// fails the run instead of hanging it.
const ioTimeout = 20 * time.Second

// play runs a fixed script (set-up logins, warm-up) outside any window.
func (c *client) play(script []entry) error {
	c.conn.SetDeadline(time.Now().Add(ioTimeout))
	for i := range script {
		status, err := c.exchange(&script[i], nil)
		if err == nil && status != 200 {
			err = errStatus
		}
		if err != nil {
			return fmt.Errorf("client %d: %s: %w", c.idx, firstLine(script[i].raw), err)
		}
	}
	return nil
}

func firstLine(raw []byte) []byte {
	if i := bytes.IndexByte(raw, '\r'); i >= 0 {
		return raw[:i]
	}
	return raw
}

// step sends the next loop entry and advances, shifting the jar when the
// loop wraps.
func (c *client) step() (*entry, int, error) {
	e := &c.cor.loop[c.next]
	status, err := c.exchange(e, nil)
	if c.next++; c.next == len(c.cor.loop) {
		c.next = 0
		c.jar.cycled()
	}
	return e, status, err
}

// warm plays the next n loop entries outside any window; the window
// carries on from where it stopped, so slot state stays consistent.
func (c *client) warm(n int) error {
	c.conn.SetDeadline(time.Now().Add(ioTimeout))
	for i := 0; i < n; i++ {
		e, status, err := c.step()
		if err == nil && status != 200 {
			err = errStatus
		}
		if err != nil {
			return fmt.Errorf("client %d: warm-up: %s: %w", c.idx, firstLine(e.raw), err)
		}
	}
	return nil
}

// run cycles the corpus until the deadline, logging one sample per
// request with times relative to epoch. A transport error ends the loop
// (the connection is dead) and counts as a failure.
func (c *client) run(epoch, deadline time.Time) {
	c.conn.SetDeadline(deadline.Add(ioTimeout))
	for left := c.budget; ; left-- {
		start := time.Now()
		if !start.Before(deadline) || (c.budget > 0 && left == 0) {
			return
		}
		e, status, err := c.step()
		end := time.Now()
		c.samples = append(c.samples, sample{end: int64(end.Sub(epoch)), lat: int64(end.Sub(start))})
		if err != nil {
			c.failed++
			return
		}
		if status != 200 {
			c.failed++
		}
		if e.write {
			c.writes++
		}
		if c.spans != nil {
			c.spans.add(lyRequest, -1, uint32(len(c.samples)), int64(start.Sub(epoch)), int64(end.Sub(epoch)))
		}
	}
}
