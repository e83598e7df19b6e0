package main

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"time"
)

// stubResponse is what the stub server answers every request with: a
// page-sized 200 that also carries a session cookie, so logins work.
var stubResponse = append([]byte("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nConnection: keep-alive\r\n"+
	"Set-Cookie: MY_ID=0123456789abcdef\r\nContent-Length:       8192\r\n\r\n"), bytes.Repeat([]byte{'x'}, 8192)...)

// stubServe answers one connection's requests with stubResponse without
// allocating, so that while a client drives it the process-wide Mallocs
// counter moves only for the client.
func stubServe(ln net.Listener) {
	conn, err := ln.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 4<<10)
	for {
		body := 0
		for {
			line, err := r.ReadSlice('\n')
			if err != nil {
				return
			}
			if len(line) <= 2 {
				break
			}
			if n, ok := contentLengthOf(line); ok {
				body = n
			}
		}
		if _, err := r.Discard(body); err != nil {
			return
		}
		if _, err := conn.Write(stubResponse); err != nil {
			return
		}
	}
}

// clientAllocsPerRequest measures the load generator's own steady-state
// heap allocations per request by driving the stub server with the real
// client loop over a mixed corpus. It reports -1 if the loop could not
// run.
func clientAllocsPerRequest() float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return -1
	}
	defer ln.Close()
	go stubServe(ln)
	reg := defaultRegistry()
	tr := mixedTraffic(reg)
	tr.users = 8
	c, err := dialClient(ln.Addr().String(), 0, newCorpusGen(reg, tr, 1, 0).build(512))
	if err != nil {
		return -1
	}
	defer c.close()
	if err := c.play(c.cor.setup); err != nil {
		return -1
	}
	const requests = 4000
	epoch := time.Now()
	c.budget = 200 // settle buffers before counting
	c.run(epoch, epoch.Add(ioTimeout))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.budget = requests
	c.run(epoch, epoch.Add(ioTimeout))
	runtime.ReadMemStats(&after)
	if c.failed != 0 {
		return -1
	}
	return float64(after.Mallocs-before.Mallocs) / requests
}
