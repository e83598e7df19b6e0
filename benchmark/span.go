package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// layer names a span: the module whose public function the span wraps.
// The names are the per-layer metric prefixes of the catalogue.
type layer uint8

const (
	lyRequest       layer = iota // root: one client request, send to last byte
	lyUnit                       // root: one unit, fabric.Dispatch to Done
	lyReplay                     // root: one replayed request (host call sequence)
	lyParse                      // httpx.ParseInto
	lyClassify                   // service.Registry.Classify
	lySession                    // session.ParseID + Array.Lookup
	lyCacheGet                   // rcache.Version + Cache.Get
	lyExecBanking                // Registry.ExecuteHost, banking types
	lyExecEcom                   // Registry.ExecuteHost, ecom types
	lyExecTelemetry              // Registry.ExecuteHost, telemetry types
	lyCachePut                   // rcache.Cache.Put
	lyKernel                     // one stage kernel's wall time (cluster.Result.Stages[k])
	lyRender                     // response render/extract (cluster.Result.RenderDur)
	numLayers
)

var layerNames = [numLayers]string{
	"client.request", "fabric.unit", "replay.request", "httpx.parse", "service.classify",
	"session.lookup", "rcache.get", "banking.execute", "ecom.execute", "telemetry.execute",
	"rcache.put", "simt.kernel", "service.render",
}

// span is one timed interval. parent indexes the same buffer (-1 for a
// root); id is the request or unit the span belongs to, shared by every
// span of one tree. Times are ns since the trace epoch.
type span struct {
	start, end int64
	parent     int32
	id         uint32
	name       layer
}

// spanBuf is one goroutine's in-memory span log. It is written by a
// single goroutine and read after that goroutine has finished.
type spanBuf struct {
	track int // Chrome trace tid: the client or caller index
	spans []span
}

// add records a span and returns its index (a parent handle). A root is
// added before its children with end == start and closed with finish,
// so a tree's spans are contiguous and start with the root.
func (b *spanBuf) add(name layer, parent int32, id uint32, start, end int64) int32 {
	b.spans = append(b.spans, span{start: start, end: end, parent: parent, id: id, name: name})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) finish(i int32, end int64) { b.spans[i].end = end }

// selfTimes returns, per layer, the summed self time of its spans and
// their count. A span's self time is its duration minus the part of
// that interval its direct children cover (overlapping children are
// merged first, and clipped to the parent).
func selfTimes(spans []span) (self [numLayers]int64, count [numLayers]int64) {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	for i, s := range spans {
		dur := s.end - s.start
		cs := kids[int32(i)]
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].start < spans[cs[b]].start })
		covered, edge := int64(0), s.start
		for _, c := range cs {
			lo, hi := spans[c].start, spans[c].end
			if lo < edge {
				lo = edge
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.name] += dur - covered
		count[s.name]++
	}
	return self, count
}

// selfTimesOf sums selfTimes over buffers (parent indexes are per
// buffer, so buffers cannot simply be concatenated).
func selfTimesOf(bufs []*spanBuf) (self [numLayers]int64, count [numLayers]int64) {
	for _, b := range bufs {
		s, c := selfTimes(b.spans)
		for l := range s {
			self[l] += s[l]
			count[l] += c[l]
		}
	}
	return self, count
}

// maxTraceTrees bounds how many span trees one buffer contributes to
// the trace file; the per-layer numbers always use every span.
const maxTraceTrees = 4000

// writeChromeTrace writes the buffers as Chrome trace-event JSON
// (chrome://tracing, ui.perfetto.dev): one complete ("X") event per
// span, one track per buffer, args carrying the tree id and parent.
func writeChromeTrace(path string, bufs []*spanBuf) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, b := range bufs {
		trees := 0
		for i, s := range b.spans {
			if s.parent < 0 {
				if trees++; trees > maxTraceTrees {
					break
				}
			}
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"span":%d,"parent":%d}}`,
				layerNames[s.name], b.track, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, i, s.parent)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}
