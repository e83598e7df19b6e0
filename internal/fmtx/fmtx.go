// Package fmtx is the formatter of the request path: Appendf formats
// into a caller's buffer what fmt.Sprintf would return, for the handful
// of verbs the page kit, the three workloads and their backends use, and
// allocates nothing — no reflection, no Stringer call, and an argument
// list that does not escape, so an integer passed to it is not boxed on
// the heap. Every format on the request path is a literal, so each is
// parsed once: the parse (literal spans, then verbs with their flags and
// width) is kept in a fixed process-wide table keyed by the format
// string and filled on first use. A format the table cannot hold (its
// slots are taken, as by the formats a fuzzer builds at run time) is
// parsed into a stack-held program, a few verbs at a time, and run by
// the same code. A format or argument outside the verb set is a
// programming error and panics; FuzzAppendf holds both paths to fmt byte
// for byte, and TestTreeFormats walks every format literal of the ported
// packages.
// Fields is the other direction, for the same backends: it cuts a
// request into its fields in place, as strings.Fields would.
package fmtx

import (
	"strconv"
	"strings"
	"sync/atomic"
	"unicode/utf8"
	"unsafe"
)

// Appendf appends to dst what fmt.Sprintf(format, args...) returns and
// returns the extended buffer. Verbs: %d and %x of any integer type, %s
// of a string, %%; flags '-' and '0' and a width. The panic
// messages are constants so that args stays on the caller's stack.
func Appendf(dst []byte, format string, args ...any) []byte {
	return formats.appendf(dst, format, args)
}

// op is one step of a parsed format: append format[lo:hi], then, unless
// verb is 0, format the next argument by verb ('d', 'x' or 's') padded
// to width. A %% ends a span, which takes its first '%', with no verb.
type op struct {
	lo, hi      int32
	width       int32
	verb        byte
	minus, zero bool
}

// parse parses format from offset i into ops, as many as fit, and
// returns how many it filled and the offset it stopped at: len(format)
// once the whole format is in ops.
func parse(format string, i int, ops []op) (n, next int) {
	for ; n < len(ops) && i < len(format); n++ {
		j := strings.IndexByte(format[i:], '%')
		if j < 0 {
			ops[n] = op{lo: int32(i), hi: int32(len(format))}
			return n + 1, len(format)
		}
		o := op{lo: int32(i), hi: int32(i + j)}
		for i += j + 1; i < len(format); i++ {
			if format[i] == '-' {
				o.minus = true
			} else if format[i] == '0' {
				o.zero = true
			} else {
				break
			}
		}
		for ; i < len(format) && '0' <= format[i] && format[i] <= '9'; i++ {
			o.width = o.width*10 + int32(format[i]-'0')
		}
		if i == len(format) {
			panic("fmtx: format ends inside a verb")
		}
		switch format[i] {
		case '%':
			o.hi++ // the span takes the first '%' of the pair
		case 'd', 'x', 's':
			o.verb = format[i]
		default:
			panic("fmtx: unsupported verb")
		}
		i++
		ops[n] = o
	}
	return n, i
}

// run appends ops' spans and verbs, formatting args from argi on, and
// returns the extended buffer and the index of the next argument.
func run(dst []byte, format string, ops []op, args []any, argi int) ([]byte, int) {
	for _, o := range ops {
		dst = append(dst, format[o.lo:o.hi]...)
		if o.verb == 0 {
			continue
		}
		if argi == len(args) {
			panic("fmtx: more verbs than arguments")
		}
		dst = o.format(dst, args[argi])
		argi++
	}
	return dst, argi
}

// format appends arg by the op's verb, flags and width.
func (o op) format(dst []byte, arg any) []byte {
	width := int(o.width)
	pad := byte(' ')
	if o.zero && !o.minus {
		pad = '0'
	}
	if o.verb == 's' {
		v, ok := arg.(string)
		if !ok {
			panic("fmtx: %s wants a string")
		}
		fill := 0
		if width > 0 {
			fill = width - utf8.RuneCountInString(v)
		}
		if !o.minus {
			dst = appendPad(dst, pad, fill)
		}
		dst = append(dst, v...)
		if o.minus {
			dst = appendPad(dst, ' ', fill)
		}
		return dst
	}
	base := 10
	if o.verb == 'x' {
		base = 16
	}
	u, neg := integer(arg)
	var tmp [20]byte
	digits := strconv.AppendUint(tmp[:0], u, base)
	fill := width - len(digits)
	if neg {
		fill--
	}
	// Zeros go between the sign and the digits, spaces before the sign
	// or, left-justified, after the digits.
	if !o.minus && pad == ' ' {
		dst = appendPad(dst, ' ', fill)
	}
	if neg {
		dst = append(dst, '-')
	}
	if pad == '0' {
		dst = appendPad(dst, '0', fill)
	}
	dst = append(dst, digits...)
	if o.minus {
		dst = appendPad(dst, ' ', fill)
	}
	return dst
}

// A formatTable holds the parse of each format it has seen, in one of
// probes slots from the format's hash; a format whose slots are all
// taken by others is parsed on every call instead. Slots fill once and
// are never replaced, so a reader needs only an atomic load.
type formatTable [tableSlots]atomic.Pointer[parsed]

const (
	tableBits  = 10
	tableSlots = 1 << tableBits // the request path has about a hundred formats
	probes     = 4
	stackOps   = 8 // verbs parsed at a time for a format the table misses
)

// parsed is the table's entry for one format.
type parsed struct {
	format string
	ops    []op
}

// formats is the process-wide table Appendf uses.
var formats formatTable

// appendf is Appendf through t.
func (t *formatTable) appendf(dst []byte, format string, args []any) []byte {
	argi := 0
	if p := t.lookup(format); p != nil {
		dst, argi = run(dst, format, p.ops, args, 0)
	} else {
		var ops [stackOps]op
		for i := 0; i < len(format); {
			var n int
			n, i = parse(format, i, ops[:])
			dst, argi = run(dst, format, ops[:n], args, argi)
		}
	}
	if argi != len(args) {
		panic("fmtx: more arguments than verbs")
	}
	return dst
}

// lookup returns format's entry, parsing it into a free slot on first
// use, or nil when its slots hold other formats. The hash is of the
// string's address and length, so a literal, which keeps its address,
// finds its slot without reading its bytes, and its compare is equal by
// pointer at once.
func (t *formatTable) lookup(format string) *parsed {
	h := (uint64(uintptr(unsafe.Pointer(unsafe.StringData(format)))) ^ uint64(len(format))) * 0x9e3779b97f4a7c15
	for k := uint64(0); k < probes; k++ {
		slot := &t[(h>>(64-tableBits)+k)%tableSlots]
		p := slot.Load()
		if p == nil {
			ops := make([]op, strings.Count(format, "%")+1)
			n, _ := parse(format, 0, ops)
			if slot.CompareAndSwap(nil, &parsed{format: format, ops: ops[:n]}) {
				return slot.Load()
			}
			p = slot.Load()
		}
		if p.format == format {
			return p
		}
	}
	return nil
}

// Sprintf is Appendf into a new string, for text that is kept: one
// allocation, the string's, when it fits 64 bytes.
func Sprintf(format string, args ...any) string {
	var tmp [64]byte
	return string(Appendf(tmp[:0], format, args...))
}

// integer widens any integer argument to its magnitude and sign.
func integer(arg any) (u uint64, neg bool) {
	var i int64
	switch v := arg.(type) {
	case int:
		i = int64(v)
	case int8:
		i = int64(v)
	case int16:
		i = int64(v)
	case int32:
		i = int64(v)
	case int64:
		i = v
	case uint:
		return uint64(v), false
	case uint8:
		return uint64(v), false
	case uint16:
		return uint64(v), false
	case uint32:
		return uint64(v), false
	case uint64:
		return v, false
	default:
		panic("fmtx: %d and %x want an integer")
	}
	if i < 0 {
		return -uint64(i), true
	}
	return uint64(i), false
}

func appendPad(dst []byte, c byte, n int) []byte {
	for ; n > 0; n-- {
		dst = append(dst, c)
	}
	return dst
}
