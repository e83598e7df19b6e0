package servicetest

import (
	"testing"

	"rhythm/internal/service"
)

// scribbler overwrites the buffer a response is answered into before
// every Handle — on the device path the lane's slot, whose last
// response it scribbles before the lane's next commit — and, on
// request, every response it answered since the last request, before
// the page renders: a stage that keeps a view of a response instead of
// a copy renders the scribble. It keeps what it answered, so its Handle
// calls must not overlap, and it reads nothing.
type scribbler struct {
	service.Backend
	answered [][]byte
}

func (s *scribbler) Handle(dst, req []byte) []byte {
	fill(dst[len(dst):cap(dst)], '#')
	resp := s.Backend.Handle(dst, req)
	// Past the response the buffer is the backend's to leave zero.
	clear(resp[len(resp):cap(resp)])
	s.answered = append(s.answered, resp[len(dst):])
	return resp
}

func (s *scribbler) Reads([]byte) bool { return false }

func (s *scribbler) scribble() {
	for _, b := range s.answered {
		fill(b, '#')
	}
	s.answered = s.answered[:0]
}

func fill(b []byte, c byte) {
	for i := range b {
		b[i] = c
	}
}

// CheckKeptLines fails unless everything the script's stages keep of a
// backend response — lines carried to a later stage, pieces of the page —
// is their own copy. The backend overwrites the buffer it answers into
// before its next Handle and every response once more before the page
// renders — on the host path the Scratch's buffer, on the device path
// the lane's response slot. The bytes must be the plain host run's
// either way.
func CheckKeptLines(t *testing.T, w *service.PageWorkload, script Script) {
	t.Helper()
	want := Host(t, w, script, true)
	scribbled := func(t testing.TB) (World, []Round) {
		wd, rounds := script(t)
		wd.Backend = &scribbler{Backend: wd.Backend}
		return wd, rounds
	}
	wd, rounds := scribbled(t)
	be := wd.Backend.(*scribbler)
	got := make([][]Result, len(rounds))
	for i, rd := range rounds {
		for _, raw := range rd.Raw {
			req := parse(t, raw)
			ctx := w.Execute(rd.Local, &req, wd.Sessions, be, true)
			be.scribble()
			got[i] = append(got[i], Result{Resp: ctx.RenderAlloc(), Failed: ctx.Err != ""})
		}
	}
	assertSame(t, "host path, response buffer overwritten", got, want)
	assertSame(t, "stage kernels, response buffer overwritten", Device(t, w, scribbled, service.Live), want)
}
