// Package jsonw holds the append-style JSON primitives shared by every
// hand-written encoder in the module: the release wire format
// (dphist.AppendRelease), the journal's record frames, and the HTTP
// server's query and mint replies. Each primitive appends exactly the
// bytes encoding/json's default encoder produces for the same value —
// HTML-safe string escaping, the float formatting of its floatEncoder —
// so a hand-built document is indistinguishable from json.Marshal's and
// never needs a second pass to validate or compact it.
package jsonw

import (
	"errors"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// errUnsupportedFloat mirrors encoding/json's UnsupportedValueError for
// NaN and infinities, which JSON cannot carry.
var errUnsupportedFloat = errors.New("unsupported value: NaN or Inf")

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string, byte-identical to
// encoding/json's default encoder: HTML-relevant characters and
// U+2028/U+2029 escaped, invalid UTF-8 replaced with U+FFFD.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// maxExactInt is 2^53: every whole float64 below it in magnitude is an
// exact int64, and its shortest decimal form is its integer digits.
const maxExactInt = 1 << 53

// AppendFloat appends f exactly as encoding/json's floatEncoder does:
// shortest representation, 'f' format unless the magnitude calls for
// 'e', with the exponent's leading zero trimmed. Whole numbers below
// 2^53 in magnitude — every count of a rounded release — take an
// integer fast path that prints the same digits without the
// shortest-float search; -0 stays on the float path, which prints it
// as "-0" the way encoding/json does.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if f > -maxExactInt && f < maxExactInt {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return strconv.AppendInt(b, i, 10), nil
		}
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, errUnsupportedFloat
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// AppendFloats appends v as a JSON array of AppendFloat numbers, or
// null for a nil slice, as encoding/json encodes a []float64.
func AppendFloats(b []byte, v []float64) ([]byte, error) {
	if v == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	var err error
	for i, f := range v {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = AppendFloat(b, f); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// AppendInts appends v as a JSON array of integers, or null for a nil
// slice, as encoding/json encodes an []int.
func AppendInts(b []byte, v []int) []byte {
	if v == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, n := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return append(b, ']')
}

// AppendTime appends t as encoding/json encodes a time.Time: a quoted
// RFC 3339 timestamp with nanoseconds, the bytes of its MarshalJSON,
// without MarshalJSON's allocation. Like MarshalJSON it fails for a year
// outside [0, 9999] or a zone offset of 24 hours or more, which RFC 3339
// cannot express.
func AppendTime(b []byte, t time.Time) ([]byte, error) {
	if y := t.Year(); y < 0 || y > 9999 {
		return b, errors.New("Time.MarshalJSON: year outside of range [0,9999]")
	}
	if _, off := t.Zone(); off <= -24*3600 || off >= 24*3600 {
		return b, errors.New("Time.MarshalJSON: timezone hour outside of range [0,23]")
	}
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b, '"'), nil
}
