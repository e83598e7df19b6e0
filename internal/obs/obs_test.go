package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"rhythm/internal/simt"
	"rhythm/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 11; i++ {
		r.Add(RequestTrace{Type: fmt.Sprintf("t%d", i)})
	}
	if r.Total() != 11 {
		t.Fatalf("Total = %d, want 11", r.Total())
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(got))
	}
	for i, tr := range got {
		wantSeq := uint64(8 + i)
		if tr.Seq != wantSeq || tr.Type != fmt.Sprintf("t%d", wantSeq) {
			t.Fatalf("Snapshot[%d] = {Seq:%d Type:%q}, want seq %d", i, tr.Seq, tr.Type, wantSeq)
		}
	}
}

func TestRecorderSince(t *testing.T) {
	r := NewRecorder(8)
	base := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		r.Add(RequestTrace{Type: "x", Spans: []Span{{Name: "s", Start: base.Add(time.Duration(i) * time.Second)}}})
	}
	got := r.Since(base.Add(3 * time.Second))
	if len(got) != 2 {
		t.Fatalf("Since kept %d traces, want 2", len(got))
	}
}

// fixedTrace builds a deterministic trace set: two requests through the
// cohort path plus two device launch records, with every timestamp
// pinned so the exported JSON is byte-stable.
func fixedTrace() ([]RequestTrace, []simt.LaunchRecord) {
	base := time.Date(2014, 3, 1, 12, 0, 0, 0, time.UTC)
	launches := []simt.LaunchRecord{
		{
			Seq: 1, Kernel: "stage0[login]", Stream: 0, Threads: 8, Warps: 1,
			Start: 10_000, End: 85_000, IssueCycles: 42_000, BlockExecs: 900,
			DivergentExec: 12, Transactions: 640, IdealTransactions: 512,
			MemBytes: 81_920, Occupancy: 0.017857142857142856, EnergyJ: 6.1e-6,
		},
		{
			Seq: 2, Kernel: "transpose", Stream: 0, Warps: 56,
			Start: 85_000, End: 130_000, Transactions: 1024, IdealTransactions: 1024,
			MemBytes: 131_072, Occupancy: 1, EnergyJ: 4.5e-6,
		},
	}
	stage := Span{
		Name:  "stage-0",
		Start: base.Add(3 * time.Millisecond),
		Dur:   2 * time.Millisecond,
		Launch: &simt.LaunchStats{
			Kernel: "stage0[login]", Threads: 8, Warps: 1, IssueCycles: 42_000, MemBytes: 81_920,
			Transactions: 640, IdealTxns: 512, BlockExecs: 900, DivergentExec: 12,
			Duration: 75_000, Seq: 1, Occupancy: 0.017857142857142856, EnergyJ: 6.1e-6,
		},
	}
	mk := func(off time.Duration) RequestTrace {
		return RequestTrace{
			Type: "login",
			Spans: []Span{
				{Name: "classify", Start: base.Add(off), Dur: 40 * time.Microsecond},
				{Name: "admit-queue", Start: base.Add(off + 40*time.Microsecond), Dur: 60 * time.Microsecond},
				{Name: "formation-wait", Start: base.Add(off + 100*time.Microsecond), Dur: 3*time.Millisecond - off - 100*time.Microsecond},
				stage,
				{Name: "render", Start: base.Add(5 * time.Millisecond), Dur: 30 * time.Microsecond},
				{Name: "write", Start: base.Add(5*time.Millisecond + 30*time.Microsecond), Dur: 200 * time.Microsecond},
			},
		}
	}
	traces := []RequestTrace{mk(0), mk(700 * time.Microsecond)}
	for i := range traces {
		traces[i].Seq = uint64(i + 1)
	}
	return traces, launches
}

// TestChromeTraceGolden pins the exported Chrome trace-event JSON
// byte-for-byte. Regenerate with: go test ./internal/obs -run Golden -update
func TestChromeTraceGolden(t *testing.T) {
	traces, launches := fixedTrace()
	got := ChromeTrace(traces, launches)
	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace JSON drifted from golden.\ngot:\n%s", got)
	}
	// And it must actually be a valid trace-event document.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	out := ChromeTrace(nil, nil)
	var doc map[string]any
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("empty trace invalid JSON: %v", err)
	}
}

func TestPromWriterFormat(t *testing.T) {
	h := stats.NewHistogram([]float64{1e6, 1e9})
	h.Observe(5e5)
	h.Observe(2e9)
	w := NewPromWriter()
	w.Family("rhythm_test_total", "counter", "a counter")
	w.Value("rhythm_test_total", Label("type", "login"), 42)
	w.Family("rhythm_lat_seconds", "histogram", "a histogram")
	w.Histogram("rhythm_lat_seconds", Label("type", "login"), h.Snapshot(), 1e-9)
	got := string(w.Bytes())

	for _, want := range []string{
		"# TYPE rhythm_test_total counter\n",
		`rhythm_test_total{type="login"} 42` + "\n",
		`rhythm_lat_seconds_bucket{type="login",le="0.001"} 1` + "\n",
		`rhythm_lat_seconds_bucket{type="login",le="+Inf"} 2` + "\n",
		`rhythm_lat_seconds_count{type="login"} 2` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	// Every non-comment line must parse as `name{labels} value`.
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unparseable sample line %q", line)
		}
	}
}

func TestPromLabelEscaping(t *testing.T) {
	if got := Label("k", `a"b\c`); got != `k="a\"b\\c"` {
		t.Fatalf("Label = %s", got)
	}
}

// TestRecorderBytesWithinBound fills a recorder three times past its
// capacity with the largest traces it can be handed: more spans than
// MaxSpans, in arrays with room for more, each span pointing to its own
// launch statistics. Every slot keeps MaxSpans spans in an array of
// MaxSpans, so the slots account for exactly BytesBound, and the heap
// the recorder holds once the overwritten traces are collected is
// within it, give or take 64 KiB of allocator rounding.
func TestRecorderBytesWithinBound(t *testing.T) {
	const (
		slots     = 256
		heapSlack = 64 << 10
	)
	fill := func() (*Recorder, int64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r := NewRecorder(slots)
		for i := 0; i < 3*slots; i++ {
			spans := make([]Span, MaxSpans+3, 2*MaxSpans)
			for k := range spans {
				spans[k] = Span{Name: "stage-0", Launch: &simt.LaunchStats{Kernel: "stage0[login]", Seq: uint64(i)}}
			}
			r.Add(RequestTrace{Type: "login", Spans: spans})
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		return r, int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	// What else the process allocates meanwhile only adds to a reading,
	// so the least of three is the recorder's.
	r, held := fill()
	for range 2 {
		_, h := fill()
		held = min(held, h)
	}

	walked := uint64(len(r.traces)) * uint64(unsafe.Sizeof(RequestTrace{}))
	for _, tr := range r.traces {
		if len(tr.Spans) != MaxSpans || cap(tr.Spans) != MaxSpans {
			t.Fatalf("a slot keeps %d spans in an array of %d, want %d", len(tr.Spans), cap(tr.Spans), MaxSpans)
		}
		walked += uint64(cap(tr.Spans)) * uint64(SpanBytes)
	}
	if walked != r.BytesBound() {
		t.Fatalf("full slots account for %d bytes, BytesBound %d", walked, r.BytesBound())
	}
	// The heap adds the allocator's rounding: the slot array is a large
	// allocation, rounded to its 8 KiB page, and each P's cache counts
	// the partly used spans it holds for the records' size classes as
	// allocated. The race detector's instrumentation adds more.
	if !raceEnabled && held > int64(r.BytesBound())+heapSlack {
		t.Fatalf("the recorder holds %d heap bytes, past its bound of %d and %d bytes of slack", held, r.BytesBound(), heapSlack)
	}
}
