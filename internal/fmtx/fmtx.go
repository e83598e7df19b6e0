// Package fmtx is the formatter of the request path: Appendf formats
// into a caller's buffer what fmt.Sprintf would return, for the handful
// of verbs the page kit, the three workloads and their backends use, and
// allocates nothing — no reflection, no Stringer call, and an argument
// list that does not escape, so an integer passed to it is not boxed on
// the heap. A format or argument outside that set is a programming
// error and panics; FuzzAppendf holds the rest to fmt byte for byte, and
// TestTreeFormats walks every format literal of the ported packages.
// Fields is the other direction, for the same backends: it cuts a
// request into its fields in place, as strings.Fields would.
package fmtx

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// Appendf appends to dst what fmt.Sprintf(format, args...) returns and
// returns the extended buffer. Verbs: %d and %x of any integer type, %s
// of a string, %%; flags '-' and '0' and a width. The panic
// messages are constants so that args stays on the caller's stack.
func Appendf(dst []byte, format string, args ...any) []byte {
	argi := 0
	for {
		i := strings.IndexByte(format, '%')
		if i < 0 {
			break
		}
		dst = append(dst, format[:i]...)
		format = format[i+1:]

		minus, zero, width := false, false, 0
		for ; format != ""; format = format[1:] {
			if format[0] == '-' {
				minus = true
			} else if format[0] == '0' {
				zero = true
			} else {
				break
			}
		}
		for ; format != "" && '0' <= format[0] && format[0] <= '9'; format = format[1:] {
			width = width*10 + int(format[0]-'0')
		}
		if format == "" {
			panic("fmtx: format ends inside a verb")
		}
		verb := format[0]
		format = format[1:]
		if verb == '%' {
			dst = append(dst, '%')
			continue
		}
		if argi == len(args) {
			panic("fmtx: more verbs than arguments")
		}
		pad := byte(' ')
		if zero && !minus {
			pad = '0'
		}
		switch verb {
		case 'd', 'x':
			base := 10
			if verb == 'x' {
				base = 16
			}
			u, neg := integer(args[argi])
			var tmp [20]byte
			digits := strconv.AppendUint(tmp[:0], u, base)
			fill := width - len(digits)
			if neg {
				fill--
			}
			// Zeros go between the sign and the digits, spaces before
			// the sign or, left-justified, after the digits.
			if !minus && pad == ' ' {
				dst = appendPad(dst, ' ', fill)
			}
			if neg {
				dst = append(dst, '-')
			}
			if pad == '0' {
				dst = appendPad(dst, '0', fill)
			}
			dst = append(dst, digits...)
			if minus {
				dst = appendPad(dst, ' ', fill)
			}
		case 's':
			v, ok := args[argi].(string)
			if !ok {
				panic("fmtx: %s wants a string")
			}
			fill := 0
			if width > 0 {
				fill = width - utf8.RuneCountInString(v)
			}
			if !minus {
				dst = appendPad(dst, pad, fill)
			}
			dst = append(dst, v...)
			if minus {
				dst = appendPad(dst, ' ', fill)
			}
		default:
			panic("fmtx: unsupported verb")
		}
		argi++
	}
	if argi != len(args) {
		panic("fmtx: more arguments than verbs")
	}
	return append(dst, format...)
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
