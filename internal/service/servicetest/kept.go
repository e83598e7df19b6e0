package servicetest

import (
	"testing"

	"rhythm/internal/service"
)

// scribbler serves a backend's responses out of one buffer of its own,
// which it overwrites before every Handle and, on request, once more: a
// stage that keeps a view of a response instead of a copy renders the
// scribble.
type scribbler struct {
	service.Backend
	buf []byte
}

func (s *scribbler) Handle(req []byte) []byte {
	s.scribble()
	s.buf = append(s.buf[:0], s.Backend.Handle(req)...)
	return s.buf
}

func (s *scribbler) scribble() {
	for i := range s.buf {
		s.buf[i] = '#'
	}
}

// CheckKeptLines fails unless everything the script's stages keep of a
// backend response — lines carried to a later stage, pieces of the page —
// is their own copy. On the host path the backend overwrites its response
// at its next Handle and once more before the page renders; on the
// device path the lane's response slot is refilled by the next stage's
// commit and the slot's next cohort. The bytes must be the plain host
// run's either way.
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
