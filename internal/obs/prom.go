package obs

import (
	"strconv"
	"strings"

	"rhythm/internal/stats"
)

// PromWriter accumulates a Prometheus text-format (version 0.0.4)
// exposition document: the format every Prometheus-compatible scraper
// ingests. It is a plain byte buffer — the caller declares a family
// once and then emits its samples, whose numbers are appended in place.
type PromWriter struct {
	b []byte
}

// NewPromWriter returns an empty writer.
func NewPromWriter() *PromWriter { return &PromWriter{} }

// Family emits the # HELP / # TYPE header for a metric family. typ is
// one of counter, gauge, histogram.
func (w *PromWriter) Family(name, typ, help string) {
	w.b = append(w.b, "# HELP "...)
	w.b = append(w.b, name...)
	w.b = append(w.b, ' ')
	w.b = append(w.b, help...)
	w.b = append(w.b, "\n# TYPE "...)
	w.b = append(w.b, name...)
	w.b = append(w.b, ' ')
	w.b = append(w.b, typ...)
	w.b = append(w.b, '\n')
}

// Value emits one sample. labels is a preformatted comma-separated
// label list without braces (`type="login"`) or "" for none.
func (w *PromWriter) Value(name, labels string, v float64) {
	w.series(name, "", labels)
	w.b = append(w.b, ' ')
	w.b = strconv.AppendFloat(w.b, v, 'g', -1, 64)
	w.b = append(w.b, '\n')
}

// series emits name+suffix and its braced labels, if any.
func (w *PromWriter) series(name, suffix, labels string) {
	w.b = append(w.b, name...)
	w.b = append(w.b, suffix...)
	if labels != "" {
		w.b = append(w.b, '{')
		w.b = append(w.b, labels...)
		w.b = append(w.b, '}')
	}
}

// Histogram emits the _bucket/_sum/_count series of one histogram
// sample set. scale multiplies bounds and sum on the way out (1e-9
// converts the repo's nanosecond recordings to Prometheus' base-unit
// seconds). The caller must have declared the family with type
// histogram.
func (w *PromWriter) Histogram(name, labels string, s stats.HistogramSnapshot, scale float64) {
	for i, bound := range s.Bounds {
		w.bucket(name, labels)
		w.b = strconv.AppendFloat(w.b, bound*scale, 'g', -1, 64)
		w.bucketEnd(s.Counts[i])
	}
	w.bucket(name, labels)
	w.b = append(w.b, "+Inf"...)
	w.bucketEnd(s.Count)
	w.series(name, "_sum", labels)
	w.b = append(w.b, ' ')
	w.b = strconv.AppendFloat(w.b, s.Sum*scale, 'g', -1, 64)
	w.b = append(w.b, '\n')
	w.series(name, "_count", labels)
	w.b = append(w.b, ' ')
	w.b = strconv.AppendUint(w.b, s.Count, 10)
	w.b = append(w.b, '\n')
}

// bucket opens one _bucket sample up to its le value, which the caller
// appends before bucketEnd closes the sample.
func (w *PromWriter) bucket(name, labels string) {
	w.b = append(w.b, name...)
	w.b = append(w.b, `_bucket{`...)
	if labels != "" {
		w.b = append(w.b, labels...)
		w.b = append(w.b, ',')
	}
	w.b = append(w.b, `le="`...)
}

func (w *PromWriter) bucketEnd(count uint64) {
	w.b = append(w.b, `"} `...)
	w.b = strconv.AppendUint(w.b, count, 10)
	w.b = append(w.b, '\n')
}

// Bytes returns the document (the writer's buffer, not a copy).
func (w *PromWriter) Bytes() []byte { return w.b }

// labelEscaper escapes a label value per the text format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Label formats one label pair, escaping the value per the text format.
func Label(key, value string) string {
	return key + `="` + labelEscaper.Replace(value) + `"`
}
