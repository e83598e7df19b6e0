package flight

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"rhythm/internal/obs"
	"rhythm/internal/simt"
	"rhythm/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

func okRecord(id uint64, lat time.Duration) Record {
	r := Record{Device: -1}
	r.TraceID = id
	r.Type = "login"
	r.Start = time.Now()
	r.Latency = lat
	r.Status = StatusOK
	return r
}

// TestPromotionByStatus: every non-OK terminal status promotes with its
// matching reason, exactly once; a fast OK request recycles.
func TestPromotionByStatus(t *testing.T) {
	r := New(Config{Ring: 8, Slow: time.Second}, nil)
	cases := []struct {
		status Status
		reason Reason
	}{
		{StatusError, ReasonError},
		{StatusShed, ReasonShed},
		{StatusDeadline, ReasonDeadline},
		{StatusKernelErr, ReasonKernel},
	}
	rec := okRecord(1, time.Millisecond)
	if r.Finish(&rec) {
		t.Fatal("fast OK request was promoted")
	}
	for i, c := range cases {
		rec := okRecord(uint64(i+2), time.Millisecond)
		rec.Status = c.status
		if !r.Finish(&rec) {
			t.Fatalf("status %v not promoted", c.status)
		}
		if rec.Reason != c.reason {
			t.Fatalf("status %v promoted with reason %v, want %v", c.status, rec.Reason, c.reason)
		}
	}
	s := r.Snapshot(0)
	if s.Total != 5 || s.Promoted != 4 || len(s.Records) != 4 {
		t.Fatalf("counters total=%d promoted=%d records=%d, want 5/4/4",
			s.Total, s.Promoted, len(s.Records))
	}
	for reason, want := range map[string]uint64{
		"error": 1, "shed": 1, "deadline": 1, "kernel-error": 1,
	} {
		if s.ByReason[reason] != want {
			t.Fatalf("by_reason[%s] = %d, want %d", reason, s.ByReason[reason], want)
		}
	}
}

// TestExplicitSlowThreshold: with Config.Slow set, OK requests past the
// threshold promote as "slow" and faster ones recycle.
func TestExplicitSlowThreshold(t *testing.T) {
	r := New(Config{Ring: 4, Slow: 10 * time.Millisecond}, nil)
	fast := okRecord(1, 9*time.Millisecond)
	slow := okRecord(2, 11*time.Millisecond)
	if r.Finish(&fast) {
		t.Fatal("request under the threshold promoted")
	}
	if !r.Finish(&slow) || slow.Reason != ReasonSlow {
		t.Fatalf("request over the threshold not promoted as slow (reason %v)", slow.Reason)
	}
}

// TestAdaptiveThreshold: with no explicit threshold, the recorder warms
// up on the histogram its caller observes OK answers into, and then
// promotes only the outliers. Sheds, which the caller does not observe,
// do not move the threshold.
func TestAdaptiveThreshold(t *testing.T) {
	lat := stats.NewHistogram(stats.LatencyBucketsNs())
	r := New(Config{Ring: 64, MinSamples: 256}, []*stats.Histogram{lat})
	finish := func(rec *Record) bool {
		lat.Observe(float64(rec.Latency))
		return r.Finish(rec)
	}
	// Warm-up: nothing promotes for slowness, even huge latencies.
	for i := 0; i < 255; i++ {
		rec := okRecord(uint64(i), time.Minute)
		if finish(&rec) {
			t.Fatalf("request %d promoted during warm-up", i)
		}
	}
	// Establish a tight distribution around 1ms — enough samples that
	// the warm-up outliers fall past the p99 rank.
	for i := 0; i < 30000; i++ {
		rec := okRecord(uint64(1000+i), time.Millisecond)
		finish(&rec)
	}
	// 1ms sits in the octave that ends at 2^20 ns.
	if th := r.threshNs.Load(); th != 1<<20 {
		t.Fatalf("adaptive threshold %dns, want the 1ms bucket edge %d", th, 1<<20)
	}
	for i := 0; i < 3000; i++ {
		rec := okRecord(uint64(40000+i), time.Minute)
		rec.Status = StatusShed
		if !r.Finish(&rec) || rec.Reason != ReasonShed {
			t.Fatal("shed not promoted as shed")
		}
	}
	if th := r.threshNs.Load(); th != 1<<20 {
		t.Fatalf("sheds moved the adaptive threshold to %dns", th)
	}
	fast := okRecord(9000, time.Millisecond)
	if finish(&fast) {
		t.Fatal("typical request promoted after warm-up")
	}
	slow := okRecord(9001, time.Second)
	if !finish(&slow) || slow.Reason != ReasonSlow {
		t.Fatal("outlier not promoted after warm-up")
	}
}

// TestRingBoundedOldestOut: the anomaly ring keeps only the newest Ring
// records, exported oldest→newest, and Snapshot(n) trims to the last n.
func TestRingBoundedOldestOut(t *testing.T) {
	r := New(Config{Ring: 4, Slow: time.Second}, nil)
	for i := 1; i <= 10; i++ {
		rec := okRecord(uint64(i), time.Millisecond)
		rec.Status = StatusError
		r.Finish(&rec)
	}
	s := r.Snapshot(0)
	if len(s.Records) != 4 {
		t.Fatalf("ring kept %d records, want 4", len(s.Records))
	}
	for i, want := range []uint64{7, 8, 9, 10} {
		if s.Records[i].TraceID != want {
			t.Fatalf("ring[%d] = trace %d, want %d", i, s.Records[i].TraceID, want)
		}
	}
	if s2 := r.Snapshot(2); len(s2.Records) != 2 || s2.Records[0].TraceID != 9 {
		t.Fatalf("Snapshot(2) = %v, want traces 9,10", s2.Records)
	}
}

// TestConcurrentExactlyOnce exercises the promote/recycle machine from
// many goroutines (the -race CI leg turns any ring or counter race into
// a failure) and checks every anomaly is recorded exactly once.
func TestConcurrentExactlyOnce(t *testing.T) {
	const workers = 8
	const perWorker = 500
	r := New(Config{Ring: workers * perWorker, Slow: time.Second}, nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var rec Record // per-connection scratch, reused across requests
			for i := 0; i < perWorker; i++ {
				rec.Reset()
				rec.TraceID = r.NextID()
				rec.Type = "login"
				rec.Latency = time.Millisecond
				switch i % 4 {
				case 0:
					rec.Status = StatusShed
				case 1:
					rec.Status = StatusDeadline
				default:
					rec.Status = StatusOK
				}
				promoted := r.Finish(&rec)
				if want := rec.Status != StatusOK; promoted != want {
					t.Errorf("status %v promoted=%v", rec.Status, promoted)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot(0)
	wantPromoted := uint64(workers * perWorker / 2)
	if s.Total != workers*perWorker || s.Promoted != wantPromoted {
		t.Fatalf("total=%d promoted=%d, want %d/%d",
			s.Total, s.Promoted, workers*perWorker, wantPromoted)
	}
	if s.ByReason["shed"] != wantPromoted/2 || s.ByReason["deadline"] != wantPromoted/2 {
		t.Fatalf("by_reason = %v, want %d each", s.ByReason, wantPromoted/2)
	}
	seen := map[uint64]bool{}
	for _, rec := range s.Records {
		if seen[rec.TraceID] {
			t.Fatalf("trace %d recorded twice", rec.TraceID)
		}
		seen[rec.TraceID] = true
	}
}

// fixedSnapshot builds a deterministic two-record snapshot (pinned
// timestamps, a failover hop, kernel linkage) for the export tests.
func fixedSnapshot() Snapshot {
	base := time.Date(2014, 3, 1, 12, 0, 0, 0, time.UTC)
	mk := func(name string, off, dur time.Duration, launch *simt.LaunchStats) obs.Span {
		return obs.Span{Name: name, Start: base.Add(off), Dur: dur, Launch: launch}
	}
	slow := Record{
		TraceID: 41, Type: "account_summary", Start: base,
		Latency: 48 * time.Millisecond, Status: StatusOK, Reason: ReasonSlow,
		Device: 3, Attempts: 2, CohortSize: 12, LaunchReason: "timeout",
		FormationWait: 31 * time.Millisecond,
		Spans: []obs.Span{
			mk("classify", 0, 40*time.Microsecond, nil),
			mk("formation-wait", time.Millisecond, 31*time.Millisecond, nil),
			mk("stage-0", 33*time.Millisecond, 9*time.Millisecond,
				&simt.LaunchStats{Kernel: "stage0[account_summary]", Seq: 7001, Threads: 12}),
			mk("render", 43*time.Millisecond, 3*time.Millisecond, nil),
			mk("write", 47*time.Millisecond, time.Millisecond, nil),
		},
	}
	slow.AddLaunch(7001)
	dead := Record{
		TraceID: 57, Type: "login", Start: base.Add(time.Second),
		Latency: 250 * time.Millisecond, Status: StatusDeadline,
		Reason: ReasonDeadline, Device: -1, Attempts: 0,
	}
	return Snapshot{
		Counters: Counters{Total: 1000, Promoted: 2, RingSize: 256, RingCount: 2,
			ThreshNs: 33554432, ByReason: map[string]uint64{"slow": 1, "deadline": 1}},
		Records: []Record{slow, dead},
	}
}

// TestChromeGolden pins the flight Chrome-trace export byte-for-byte
// (refresh deliberately with -update).
func TestChromeGolden(t *testing.T) {
	got := fixedSnapshot().Chrome()
	golden := filepath.Join("testdata", "chrome_golden.json")
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
		t.Fatalf("chrome export drifted from golden; rerun with -update if deliberate.\ngot:\n%s", got)
	}
	var doc map[string]any
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
}

// TestJSONDocument: the /v1/debug/flight document carries the causal
// fields the debugging workflow joins on.
func TestJSONDocument(t *testing.T) {
	out := fixedSnapshot().JSON()
	var doc struct {
		Schema   int    `json:"schema"`
		Total    uint64 `json:"total"`
		Promoted uint64 `json:"promoted"`
		Records  []struct {
			TraceID         uint64   `json:"trace_id"`
			Status          string   `json:"status"`
			Reason          string   `json:"reason"`
			Device          int      `json:"device"`
			Attempts        int      `json:"attempts"`
			CohortSize      int      `json:"cohort_size"`
			LaunchSeqs      []uint64 `json:"launch_seqs"`
			FormationWaitUs float64  `json:"formation_wait_us"`
		} `json:"records"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("flight document is not valid JSON: %v", err)
	}
	if doc.Schema != 1 || doc.Total != 1000 || doc.Promoted != 2 || len(doc.Records) != 2 {
		t.Fatalf("document header wrong: %+v", doc)
	}
	slow := doc.Records[0]
	if slow.TraceID != 41 || slow.Reason != "slow" || slow.Device != 3 ||
		slow.Attempts != 2 || slow.CohortSize != 12 ||
		len(slow.LaunchSeqs) != 1 || slow.LaunchSeqs[0] != 7001 ||
		slow.FormationWaitUs != 31000 {
		t.Fatalf("slow record lost causal fields: %+v", slow)
	}
	if doc.Records[1].Status != "deadline" {
		t.Fatalf("deadline record status = %q", doc.Records[1].Status)
	}
}

// BenchmarkFinish measures the fast-path append (the CI alloc gate holds
// this at ≤1 alloc/req via TestAllocBudgets at the repo root).
func BenchmarkFinish(b *testing.B) {
	r := New(Config{Ring: 256, Slow: time.Hour}, nil)
	var rec Record
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Reset()
		rec.TraceID = r.NextID()
		rec.Type = "login"
		rec.Latency = time.Millisecond
		r.Finish(&rec)
	}
	if r.Total() == 0 {
		b.Fatal("no requests finished")
	}
}

// TestRingBytesWithinBound fills the anomaly ring three times past its
// capacity with the largest records it can be handed: promoted, with
// more spans than obs.MaxSpans in arrays with room for more, each span
// pointing to its own launch statistics. Every slot keeps obs.MaxSpans
// spans in an array of obs.MaxSpans, so the slots account for exactly
// BytesBound, and the heap the recorder holds once the overwritten
// records are collected is within it, give or take 64 KiB of allocator
// rounding.
func TestRingBytesWithinBound(t *testing.T) {
	const (
		slots     = 256
		heapSlack = 64 << 10
	)
	fill := func() (*Recorder, int64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r := New(Config{Ring: slots}, nil)
		for i := 0; i < 3*slots; i++ {
			spans := make([]obs.Span, obs.MaxSpans+3, 2*obs.MaxSpans)
			for k := range spans {
				spans[k] = obs.Span{Name: "stage-0", Launch: &simt.LaunchStats{Kernel: "stage0[login]", Seq: uint64(i)}}
			}
			rec := Record{TraceID: uint64(i), Type: "banking/login", Status: StatusShed, LaunchReason: "timeout", NumLaunches: maxLaunches, Spans: spans}
			if !r.Finish(&rec) {
				t.Fatal("a shed request was not promoted")
			}
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

	walked := uint64(len(r.ring)) * uint64(unsafe.Sizeof(Record{}))
	for _, rec := range r.ring {
		if len(rec.Spans) != obs.MaxSpans || cap(rec.Spans) != obs.MaxSpans {
			t.Fatalf("a slot keeps %d spans in an array of %d, want %d", len(rec.Spans), cap(rec.Spans), obs.MaxSpans)
		}
		walked += uint64(cap(rec.Spans)) * uint64(obs.SpanBytes)
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
