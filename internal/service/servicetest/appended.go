package servicetest

import "testing"

// CheckAppended holds a backend's Handle to the service.Backend
// contract a lane's commit and the host path rely on: resp, its answer
// to req appended to buf[:0] — buf filled with '#' — lies in buf, so a
// reused buffer takes it without allocating, and leaves what it does not
// fill of buf '#' or zero. An answer that outgrew buf passes. It returns
// resp.
func CheckAppended(t testing.TB, req string, resp, buf []byte) []byte {
	t.Helper()
	switch {
	case len(resp) > len(buf):
		return resp
	case len(resp) > 0 && &resp[0] != &buf[0]:
		t.Fatalf("%q: the response is not in the caller's buffer", req)
	}
	for i, c := range buf[len(resp):] {
		if c != '#' && c != 0 {
			t.Fatalf("%q: wrote %q past its %d-byte response, at %d", req, c, len(resp), len(resp)+i)
		}
	}
	return resp
}
