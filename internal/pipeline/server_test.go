package pipeline

import (
	"sync/atomic"
	"testing"

	"rhythm/internal/banking"
	"rhythm/internal/mem"
	"rhythm/internal/service"
	"rhythm/internal/sim"
	"rhythm/internal/simt"
)

// testRig is a small server on the GTX Titan (Titan A behind PCIe 3.0)
// with its generator: 1024 pre-created sessions in 256 buckets, and
// room for every one of up to 1024 requests to log in.
type testRig struct {
	srv *Server
	gen *banking.Generator
}

func newRig(t *testing.T, opts Options) *testRig {
	t.Helper()
	srv := New(opts, nil, 0, 1, 1024, 1024)
	return &testRig{srv: srv, gen: srv.Generator()}
}

// smallOptions is Titan B (the zero Platform: device backend, padding,
// column-major) at a test-sized cohort.
func smallOptions() Options {
	return Options{
		Variant:            service.Live,
		CohortSize:         64,
		MaxCohorts:         4,
		BackendWorkers:     4,
		BackendServiceTime: 2_000,
		ValidateEvery:      7,
	}
}

func (r *testRig) isolated(t banking.ReqType, n int) Source {
	reqs := make([][]byte, n)
	for i := range reqs {
		reqs[i] = r.gen.Request(t)
	}
	return &SliceSource{Reqs: reqs}
}

func (r *testRig) mixed(n int) Source {
	reqs := make([][]byte, n)
	for i := range reqs {
		reqs[i], _ = r.gen.Mixed()
	}
	return &SliceSource{Reqs: reqs}
}

func TestIsolatedRunCompletesAndValidates(t *testing.T) {
	rig := newRig(t, smallOptions())
	st := rig.srv.Run(rig.isolated(banking.AccountSummary, 256))
	if st.Completed != 256 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	if st.Errors != 0 || st.ParseErrors != 0 {
		t.Fatalf("errors: %d app, %d parse", st.Errors, st.ParseErrors)
	}
	if st.Validated == 0 {
		t.Fatal("no responses validated")
	}
	if st.ValidationFailures != 0 {
		t.Fatalf("%d of %d validations failed", st.ValidationFailures, st.Validated)
	}
	if st.Throughput() <= 0 {
		t.Fatal("no throughput measured")
	}
	if st.Latency.Mean() <= 0 {
		t.Fatal("no latency measured")
	}
	if st.Cohort.Formed != 4 {
		t.Fatalf("cohorts formed = %d, want 4", st.Cohort.Formed)
	}
}

func TestEveryTypeRunsOnDevice(t *testing.T) {
	for rt := banking.ReqType(0); rt < banking.NumTypes; rt++ {
		rt := rt
		t.Run(rt.String(), func(t *testing.T) {
			opts := smallOptions()
			opts.ValidateEvery = 3
			rig := newRig(t, opts)
			st := rig.srv.Run(rig.isolated(rt, 128))
			if st.Completed != 128 {
				t.Fatalf("Completed = %d", st.Completed)
			}
			if st.Errors != 0 {
				t.Fatalf("%d error responses", st.Errors)
			}
			if st.ValidationFailures != 0 {
				t.Fatalf("%d validation failures", st.ValidationFailures)
			}
		})
	}
}

func TestMixedRunDispatchesByType(t *testing.T) {
	opts := smallOptions()
	opts.CohortSize = 32
	opts.MaxCohorts = 14 // one forming context per type plus slack
	opts.FormationTimeout = sim.Duration(0)
	rig := newRig(t, opts)
	st := rig.srv.Run(rig.mixed(1024))
	if st.Completed != 1024 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	// Cohort scheduling can reorder a request past the logout that ends
	// its session — a legitimate (rare) expired-session error page.
	if st.Errors > 20 {
		t.Fatalf("%d error responses", st.Errors)
	}
	if st.Cohort.Formed == 0 {
		t.Fatal("no cohorts formed")
	}
	// Mixed traffic must have produced divergent parser executions.
	if st.Device.DivergentExec == 0 {
		t.Fatal("mixed cohorts showed no parser divergence")
	}
}

func TestRemoteBackendPath(t *testing.T) {
	opts := smallOptions()
	opts.Platform = service.TitanA
	opts.BackendWorkers = 4
	opts.BackendServiceTime = 2000
	rig := newRig(t, opts)
	st := rig.srv.Run(rig.isolated(banking.BillPay, 128))
	if st.Completed != 128 || st.Errors != 0 {
		t.Fatalf("completed=%d errors=%d", st.Completed, st.Errors)
	}
	if st.ValidationFailures != 0 {
		t.Fatalf("%d validation failures", st.ValidationFailures)
	}
	if st.Device.CopiedBytes == 0 {
		t.Fatal("remote backend moved no bytes over the bus")
	}
}

func TestTitanAIsSlowerThanTitanB(t *testing.T) {
	run := func(opts Options) float64 {
		rig := newRig(t, opts)
		return rig.srv.Run(rig.isolated(banking.AccountSummary, 512)).Throughput()
	}
	a := smallOptions()
	a.Platform = service.TitanA
	a.BackendWorkers = 8
	b := smallOptions()
	ta, tb := run(a), run(b)
	if ta >= tb {
		t.Fatalf("Titan A (%.0f req/s) should be slower than Titan B (%.0f req/s)", ta, tb)
	}
}

func TestTitanCFasterThanTitanB(t *testing.T) {
	run := func(opts Options) float64 {
		rig := newRig(t, opts)
		return rig.srv.Run(rig.isolated(banking.Logout, 512)).Throughput()
	}
	b := smallOptions()
	c := smallOptions()
	c.Platform = service.TitanC
	tb, tc := run(b), run(c)
	if tc <= tb {
		t.Fatalf("Titan C (%.0f req/s) should beat Titan B (%.0f req/s)", tc, tb)
	}
}

func TestFormationTimeoutLaunchesPartialCohort(t *testing.T) {
	opts := smallOptions()
	opts.CohortSize = 64
	opts.FormationTimeout = sim.Duration(1_000_000) // 1 ms
	rig := newRig(t, opts)
	// 10 requests: never fills a 64-slot cohort; timeout must launch it.
	st := rig.srv.Run(rig.isolated(banking.Transfer, 10))
	if st.Completed != 10 {
		t.Fatalf("Completed = %d", st.Completed)
	}
}

func TestPartialFlushAtStreamEnd(t *testing.T) {
	opts := smallOptions()
	opts.FormationTimeout = 0 // no timeout: only Flush can launch partials
	rig := newRig(t, opts)
	st := rig.srv.Run(rig.isolated(banking.Login, 100)) // 64 + 36 partial
	if st.Completed != 100 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	if st.Cohort.TimedOut == 0 {
		t.Fatal("expected a flushed partial cohort")
	}
}

func TestParseErrorsAnsweredFromHost(t *testing.T) {
	opts := smallOptions()
	rig := newRig(t, opts)
	reqs := [][]byte{
		[]byte("BOGUS /x HTTP/1.1\r\n\r\n"),
		rig.gen.Request(banking.Profile),
	}
	// Pad with valid requests so cohorts fill.
	for i := 0; i < 62; i++ {
		reqs = append(reqs, rig.gen.Request(banking.Profile))
	}
	st := rig.srv.Run(&SliceSource{Reqs: reqs})
	if st.ParseErrors != 1 {
		t.Fatalf("ParseErrors = %d", st.ParseErrors)
	}
	if st.Completed != 64 {
		t.Fatalf("Completed = %d", st.Completed)
	}
}

func TestUnknownResourceIsParseError(t *testing.T) {
	opts := smallOptions()
	opts.CohortSize = 4
	rig := newRig(t, opts)
	st := rig.srv.Run(&SliceSource{Reqs: [][]byte{
		[]byte("GET /favicon.ico HTTP/1.1\r\n\r\n"),
		rig.gen.Request(banking.Transfer),
		rig.gen.Request(banking.Transfer),
		rig.gen.Request(banking.Transfer),
	}})
	if st.ParseErrors != 1 {
		t.Fatalf("ParseErrors = %d", st.ParseErrors)
	}
	if st.Completed != 4 {
		t.Fatalf("Completed = %d", st.Completed)
	}
}

func TestExpiredSessionsBecomeErrorPages(t *testing.T) {
	opts := smallOptions()
	opts.CohortSize = 8
	rig := newRig(t, opts)
	reqs := make([][]byte, 8)
	for i := range reqs {
		reqs[i] = []byte("GET /profile.php HTTP/1.1\r\nCookie: MY_ID=ffffffffffffffff\r\n\r\n")
	}
	st := rig.srv.Run(&SliceSource{Reqs: reqs})
	if st.Completed != 8 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	if st.Errors != 8 {
		t.Fatalf("Errors = %d, want 8", st.Errors)
	}
}

func TestPaddingAblationHurtsTraffic(t *testing.T) {
	run := func(padding bool) simt.DeviceStats {
		opts := smallOptions()
		opts.Padding = padding
		opts.ValidateEvery = 0
		rig := newRig(t, opts)
		st := rig.srv.Run(rig.isolated(banking.AccountSummary, 128))
		if st.Completed != 128 {
			t.Fatalf("Completed = %d", st.Completed)
		}
		return st.Device
	}
	padded := run(true)
	unpadded := run(false)
	if unpadded.Transactions <= padded.Transactions {
		t.Fatalf("unpadded transactions (%d) should exceed padded (%d)",
			unpadded.Transactions, padded.Transactions)
	}
}

func TestRowMajorAblationHurtsTraffic(t *testing.T) {
	run := func(colMajor bool) simt.DeviceStats {
		opts := smallOptions()
		opts.ColMajor = colMajor
		opts.ValidateEvery = 0
		rig := newRig(t, opts)
		st := rig.srv.Run(rig.isolated(banking.CheckDetailHTML, 128))
		if st.Completed != 128 {
			t.Fatalf("Completed = %d", st.Completed)
		}
		return st.Device
	}
	col := run(true)
	row := run(false)
	if row.Transactions <= col.Transactions {
		t.Fatalf("row-major transactions (%d) should exceed column-major (%d)",
			row.Transactions, col.Transactions)
	}
}

func TestRowMajorStillValidates(t *testing.T) {
	opts := smallOptions()
	opts.ColMajor = false
	opts.ValidateEvery = 2
	rig := newRig(t, opts)
	st := rig.srv.Run(rig.isolated(banking.Login, 64))
	if st.ValidationFailures != 0 {
		t.Fatalf("%d validation failures in row-major mode", st.ValidationFailures)
	}
	if st.Validated == 0 {
		t.Fatal("nothing validated")
	}
}

func TestLoginsCreateSessions(t *testing.T) {
	opts := smallOptions()
	rig := newRig(t, opts)
	before := rig.srv.sessions.Len()
	st := rig.srv.Run(rig.isolated(banking.Login, 64))
	if st.Errors != 0 {
		t.Fatalf("%d login errors", st.Errors)
	}
	if got := rig.srv.sessions.Len() - before; got != 64 {
		t.Fatalf("sessions grew by %d, want 64", got)
	}
}

func TestImageRequestsBypassProcessStage(t *testing.T) {
	opts := smallOptions()
	opts.CohortSize = 16
	rig := newRig(t, opts)
	reqs := [][]byte{
		[]byte("GET " + banking.ImagePathPrefix + "banner.gif HTTP/1.1\r\nHost: bank\r\n\r\n"),
		[]byte("GET " + banking.ImagePathPrefix + "chart_q1.gif HTTP/1.1\r\nHost: bank\r\n\r\n"),
	}
	for i := 0; i < 14; i++ {
		reqs = append(reqs, rig.gen.Request(banking.Transfer))
	}
	st := rig.srv.Run(&SliceSource{Reqs: reqs})
	if st.Images != 2 {
		t.Fatalf("Images = %d, want 2", st.Images)
	}
	if st.Completed != 16 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	if st.ParseErrors != 0 {
		t.Fatalf("ParseErrors = %d", st.ParseErrors)
	}
	// The 14 dynamic requests formed a cohort without the images.
	if st.Cohort.Requests != 14 {
		t.Fatalf("cohort requests = %d, want 14", st.Cohort.Requests)
	}
}

func TestStragglerTimeoutShedsToHost(t *testing.T) {
	opts := smallOptions()
	opts.Platform = service.TitanA
	opts.BackendWorkers = 64 // plenty: only the tail stalls
	opts.BackendServiceTime = 2000
	opts.BackendTailProb = 0.05
	opts.BackendTailFactor = 10000                  // 20 ms stalls
	opts.StragglerTimeout = sim.Duration(2_000_000) // 2 ms deadline
	opts.ValidateEvery = 0
	rig := newRig(t, opts)
	st := rig.srv.Run(rig.isolated(banking.BillPay, 256))
	if st.Completed != 256 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	if st.Stragglers == 0 {
		t.Fatal("tail-heavy backend produced no stragglers")
	}
	if st.Stragglers > 40 {
		t.Fatalf("Stragglers = %d, far above the ~5%% tail", st.Stragglers)
	}
}

func TestStragglerTimeoutCutsTailLatency(t *testing.T) {
	run := func(timeout sim.Time) pipeline99 {
		opts := smallOptions()
		opts.Platform = service.TitanA
		opts.BackendWorkers = 64
		opts.BackendServiceTime = 2000
		opts.BackendTailProb = 0.03
		opts.BackendTailFactor = 20000 // 40 ms stalls
		opts.StragglerTimeout = timeout
		opts.ValidateEvery = 0
		rig := newRig(t, opts)
		st := rig.srv.Run(rig.isolated(banking.Transfer, 256))
		if st.Completed != 256 {
			t.Fatalf("Completed = %d", st.Completed)
		}
		return pipeline99{st.Latency.Percentile(99), st.Stragglers}
	}
	without := run(0)
	with := run(sim.Duration(2_000_000))
	if with.stragglers == 0 {
		t.Fatal("no stragglers shed")
	}
	// Shedding stragglers must cut the cohort-wide p99: without it, every
	// request in a cohort waits out the 40 ms stall.
	if with.p99 >= without.p99 {
		t.Fatalf("straggler timeout did not help: p99 with=%.1fms without=%.1fms",
			with.p99/1e6, without.p99/1e6)
	}
}

type pipeline99 struct {
	p99        float64
	stragglers uint64
}

func TestNoStragglersWithoutTail(t *testing.T) {
	opts := smallOptions()
	opts.Platform = service.TitanA
	opts.StragglerTimeout = sim.Duration(50_000_000)
	opts.ValidateEvery = 0
	rig := newRig(t, opts)
	st := rig.srv.Run(rig.isolated(banking.Profile, 128))
	if st.Stragglers != 0 {
		t.Fatalf("Stragglers = %d with no backend tail", st.Stragglers)
	}
	if st.Completed != 128 {
		t.Fatalf("Completed = %d", st.Completed)
	}
}

func TestQuickPayVariableStagesOnDevice(t *testing.T) {
	opts := smallOptions()
	rig := newRig(t, opts)
	st := rig.srv.Run(rig.isolated(banking.QuickPay, 128))
	if st.Completed != 128 || st.Errors != 0 {
		t.Fatalf("completed=%d errors=%d", st.Completed, st.Errors)
	}
	if st.ValidationFailures != 0 {
		t.Fatalf("%d validation failures", st.ValidationFailures)
	}
	// Requests with 1-2 payees retire before the max stage: the later
	// kernels run with a shrinking mask, which shows up as divergence.
	if st.Device.DivergentExec == 0 {
		t.Fatal("variable-stage cohorts showed no divergence")
	}
}

func TestQuickPayRemoteBackendSkipsDoneLanes(t *testing.T) {
	opts := smallOptions()
	opts.Platform = service.TitanA
	opts.BackendWorkers = 8
	opts.ValidateEvery = 2
	rig := newRig(t, opts)
	calls := &countingBackend{Backend: rig.srv.db}
	rig.srv.db = calls
	st := rig.srv.Run(rig.isolated(banking.QuickPay, 64))
	if st.Completed != 64 || st.Errors != 0 {
		t.Fatalf("completed=%d errors=%d", st.Completed, st.Errors)
	}
	if st.ValidationFailures != 0 {
		t.Fatalf("%d validation failures", st.ValidationFailures)
	}
	// Each request must hit the backend exactly once per payee (1-3):
	// done lanes are skipped in later round trips, never re-billed.
	if n := calls.n.Load(); n < 64 || n > 3*64 {
		t.Fatalf("backend calls = %d, want within [64, 192]", n)
	}
}

// countingBackend counts the requests it passes to its backend.
type countingBackend struct {
	service.Backend
	n atomic.Int64
}

func (c *countingBackend) Handle(dst, req []byte) []byte {
	c.n.Add(1)
	return c.Backend.Handle(dst, req)
}

// TestStragglerSettingsNeedTitanA: the straggler settings act only on
// Titan A's host round trip, so setting one on a platform whose backend
// runs inside the stage kernel is refused, not silently ignored.
func TestStragglerSettingsNeedTitanA(t *testing.T) {
	settings := map[string]func(*Options){
		"StragglerTimeout":  func(o *Options) { o.StragglerTimeout = sim.Duration(2_000_000) },
		"BackendTailProb":   func(o *Options) { o.BackendTailProb = 0.03 },
		"BackendTailFactor": func(o *Options) { o.BackendTailFactor = 10 },
	}
	for _, p := range []service.Platform{service.TitanB, service.TitanC} {
		for name, set := range settings {
			opts := smallOptions()
			opts.Platform = p
			set(&opts)
			msg := func() (msg any) {
				defer func() { msg = recover() }()
				newRig(t, opts)
				return nil
			}()
			if msg == nil {
				t.Errorf("%v with %s set: New did not panic", p, name)
			}
		}
	}
}

// TestDeviceBacksOnlyTheReader: at rhythm.NewSimServer's default
// geometry (cohorts of 4096, eight contexts) a server's device backs the
// reader's two batches in both layouts, 4 × CohortSize × RequestSlot
// bytes, plus 1 MiB of slack, and after a mixed run on Titan A or B
// nothing else has been allocated in it: the cohort contexts' buffers
// are priced address space and their backend bytes host buffers.
func TestDeviceBacksOnlyTheReader(t *testing.T) {
	for _, p := range []service.Platform{service.TitanB, service.TitanA} {
		opts := Options{Variant: service.Live, CohortSize: 4096, MaxCohorts: 8}
		opts.Platform = p
		rig := newRig(t, opts)
		if st := rig.srv.Run(rig.mixed(1024)); st.Completed != 1024 {
			t.Fatalf("%v: completed %d of 1024", p, st.Completed)
		}
		reader := 4 * opts.CohortSize * banking.RequestSlot
		m := rig.srv.dev.Mem
		if at := m.Alloc(0, 256); at != mem.Addr(reader) {
			t.Fatalf("%v: the device allocated %d bytes, want the reader's %d", p, at, reader)
		}
		if size := reader + 1<<20; !backs(m, size) || backs(m, size+1) {
			t.Fatalf("%v: the device does not back exactly the reader's %d bytes and 1 MiB", p, reader)
		}
	}
}

// backs reports whether m backs the n bytes from address 0.
func backs(m *mem.Memory, n int) (ok bool) {
	defer func() { ok = recover() == nil }()
	m.Bytes(0, n)
	return true
}
