package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	var b spanBuf
	// Root 0..100 with children 10..30, 20..50 (overlapping: cover 10..50
	// once) and 90..120 (clipped to the root: 90..100). Self = 100-40-10.
	root := b.add(lyReplay, -1, 1, 0, 0)
	b.add(lyParse, root, 1, 10, 30)
	exec := b.add(lyExecBanking, root, 1, 20, 50)
	b.add(lyCachePut, root, 1, 90, 120)
	// A grandchild counts against its parent only.
	b.add(lyRender, exec, 1, 25, 35)
	b.finish(root, 100)
	self, count := selfTimes(b.spans)
	want := map[layer]int64{lyReplay: 50, lyParse: 20, lyExecBanking: 20, lyCachePut: 30, lyRender: 10}
	for l, w := range want {
		if self[l] != w || count[l] != 1 {
			t.Errorf("%s: self %d count %d, want %d and 1", layerNames[l], self[l], count[l], w)
		}
	}
}

// The traced replay must reconcile: the self times of the layer spans
// plus the root's own self time (the residual) add up to the root spans
// within 5%.
func TestReplayReconciles(t *testing.T) {
	reg := defaultRegistry()
	tr := cachedTraffic(reg, 16, 0.3)
	cor := newCorpusGen(reg, tr, 3, 0).build(400)
	rp := newReplayer(reg, 256, false)
	spans, err := replayCorpora(rp, []*corpus{cor})
	if err != nil {
		t.Fatal(err)
	}
	if rp.failed != 0 {
		t.Fatalf("%d replayed requests failed", rp.failed)
	}
	self, count := selfTimes(spans.spans)
	if int(count[lyReplay]) != len(cor.loop) {
		t.Fatalf("%d root spans for %d requests", count[lyReplay], len(cor.loop))
	}
	var roots, layers int64
	for _, s := range spans.spans {
		if s.parent < 0 {
			roots += s.end - s.start
			continue
		}
		p := spans.spans[s.parent]
		if s.start < p.start || s.end > p.end || s.id != p.id {
			t.Fatalf("span %+v escapes its parent %+v", s, p)
		}
	}
	for l := lyParse; l < numLayers; l++ {
		layers += self[l]
	}
	residual := self[lyReplay]
	if diff := math.Abs(float64(layers+residual-roots)) / float64(roots); diff > 0.05 {
		t.Errorf("layers %d + residual %d != roots %d (off by %.1f%%)", layers, residual, roots, 100*diff)
	}
	for _, l := range []layer{lyParse, lyClassify, lySession, lyCacheGet, lyExecBanking, lyCachePut} {
		if count[l] == 0 {
			t.Errorf("no %s span in a cached banking replay", layerNames[l])
		}
	}
	if count[lyExecBanking] >= count[lyReplay] {
		t.Error("every request executed: the replay's cache never hit")
	}
	if rp.hookCalls == 0 {
		t.Error("no write hook fired although 30% of the requests are writes")
	}
}

func TestChromeTraceFile(t *testing.T) {
	b := &spanBuf{track: 3}
	root := b.add(lyUnit, -1, 9, 1000, 0)
	b.add(lyKernel, root, 9, 2000, 5000)
	b.finish(root, 9000)
	path := filepath.Join(t.TempDir(), "sub", "w.trace.json")
	if err := writeChromeTrace(path, []*spanBuf{b}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID, Span, Parent int
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v\n%s", err, raw)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	k := doc.TraceEvents[1]
	if k.Name != "simt.kernel" || k.Ph != "X" || k.Tid != 3 || k.Ts != 2 || k.Dur != 3 || k.Args.ID != 9 || k.Args.Parent != 0 {
		t.Errorf("kernel event = %+v", k)
	}
}
