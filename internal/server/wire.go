// wire.go is the zero-allocation wire layer for the query hot path.
//
// POST /v1/query and /v1/query2d are the routes the serving tier exists
// for: the in-memory plan engine answers a range in tens of
// nanoseconds, so reflection-based encoding/json decode/encode and the
// per-request slices it allocates dominated the served cost. This file
// replaces that path with a pooled scratch struct carried through the
// whole request — body bytes, decoded specs, answers, and the response
// buffer all live in one sync.Pool entry — a hand-rolled streaming
// parser for the two fixed request shapes, and an append-based response
// writer built on the internal/jsonw primitives. The steady-state cost
// is ~1 amortized allocation per request (enforced by
// TestServerQueryAllocs). The mint replies use the same append writers,
// with the release's wire bytes spliced in by dphist.AppendRelease.
//
// The parser is not "close enough" JSON: FuzzQueryRequestParse holds it
// to encoding/json's observable behavior on the request shapes —
// case-insensitive field matching (bytes.EqualFold, as encoding/json
// folds names), last-value-wins duplicate keys, null as a field no-op,
// unknown fields skipped with full syntactic validation, encoding/json's
// string unescaping (including lone-surrogate and invalid-UTF-8
// replacement) and its strconv.ParseInt integer semantics. Where it is
// stricter than a generic decoder it is stricter on purpose: a spec
// batch larger than the route cap fails during parsing, before the
// oversized tail is even scanned.
//
// Spec arrays try an exact-shape fast path first. servebench and
// json.Marshal of []RangeSpec and []RectSpec write every element as
// {"lo":D,"hi":D} or {"x0":D,"y0":D,"x1":D,"y1":D}, with no whitespace,
// and the router forwards those bytes unchanged. exactRanges and
// exactRects parse runs of such elements, D being 1 to 18 digits
// without a leading zero, which cannot overflow an int, about 4x faster
// than the general parser (the parse-only cases of
// BenchmarkServerQueryHTTP and BenchmarkServerQuery2DHTTP). Every other
// element, from its first byte on, goes to the general parser, which
// stays as it was. This keeps the encoding/json equivalence. The fast
// path takes only bytes that the general parser would decode without
// error into the same spec, both fields written. Whitespace, other key
// spellings, signs, fractions, exponents, long numbers and malformed
// elements take the general path, and so do their errors with their
// element indices. Both paths check the spec cap before each element.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/dphist/dphist"
	"github.com/dphist/dphist/internal/jsonw"
)

// queryScratch is one pooled working set for a query request: every
// buffer the hot path touches, reused across requests. Fields hold
// their capacity between uses; slices are re-sliced to zero length, not
// reallocated. A scratch is owned by exactly one request at a time, so
// none of this needs locking.
type queryScratch struct {
	body    []byte             // raw request body
	key     []byte             // decoded object key scratch
	str     []byte             // decoded name scratch
	specs   []dphist.RangeSpec // decoded /v1/query batch
	rects   []dphist.RectSpec  // decoded /v1/query2d batch
	answers []float64          // query results
	out     []byte             // encoded response

	// Interning memo for the release name: converting decoded name
	// bytes to a string is the one unavoidable allocation in the hot
	// path, and serving traffic re-queries a small set of names. Each
	// scratch remembers the last name it interned; a repeat costs a
	// byte comparison instead of an allocation.
	lastNameBytes []byte
	lastName      string
}

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// internName returns sc.str as a string, reusing the scratch's memoized
// string when the bytes match the previous request's name.
func (sc *queryScratch) internName() string {
	if bytes.Equal(sc.str, sc.lastNameBytes) {
		return sc.lastName
	}
	sc.lastName = string(sc.str)
	sc.lastNameBytes = append(sc.lastNameBytes[:0], sc.str...)
	return sc.lastName
}

// readBody reads the request body into the scratch's pooled buffer,
// enforcing maxRequestBody. On failure it writes the error response and
// returns false. The manual read loop exists because
// http.MaxBytesReader allocates a wrapper per request.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, sc *queryScratch) bool {
	buf := sc.body[:0]
	if n := r.ContentLength; n > 0 {
		if n > maxRequestBody {
			s.writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: fmt.Sprintf("malformed request: request body exceeds %d bytes", maxRequestBody)})
			return false
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, 0, n)
		}
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxRequestBody {
			sc.body = buf
			s.writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: fmt.Sprintf("malformed request: request body exceeds %d bytes", maxRequestBody)})
			return false
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			sc.body = buf
			s.writeJSON(w, http.StatusBadRequest, errorResponse{
				Error: "malformed request: reading body: " + err.Error()})
			return false
		}
	}
	sc.body = buf
	return true
}

// maxNestingDepth mirrors encoding/json's scanner limit, so deeply
// nested unknown fields fail here exactly where they fail there.
const maxNestingDepth = 10000

var errUnexpectedEnd = errors.New("unexpected end of request body")

// wireParser is a cursor over one request body. Parse errors are the
// cold path and may allocate freely.
type wireParser struct {
	data  []byte
	pos   int
	depth int
}

func (p *wireParser) errAt(msg string) error {
	return fmt.Errorf("%s at offset %d", msg, p.pos)
}

func (p *wireParser) skipSpace() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// literal consumes the exact bytes of lit ("true", "false", "null").
func (p *wireParser) literal(lit string) error {
	if len(p.data)-p.pos < len(lit) || string(p.data[p.pos:p.pos+len(lit)]) != lit {
		return p.errAt("invalid literal")
	}
	p.pos += len(lit)
	return nil
}

// end verifies only whitespace remains, matching json.Unmarshal's
// rejection of trailing data after the top-level value.
func (p *wireParser) end() error {
	p.skipSpace()
	if p.pos != len(p.data) {
		return p.errAt("unexpected data after top-level value")
	}
	return nil
}

// peekNull reports whether the next value is the null literal.
func (p *wireParser) peekNull() bool {
	return p.pos < len(p.data) && p.data[p.pos] == 'n'
}

// hex4 consumes 4 hex digits and returns their value.
func (p *wireParser) hex4() (rune, error) {
	if len(p.data)-p.pos < 4 {
		return 0, errUnexpectedEnd
	}
	var v rune
	for i := 0; i < 4; i++ {
		c := p.data[p.pos]
		switch {
		case '0' <= c && c <= '9':
			v = v<<4 | rune(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | rune(c-'a'+10)
		case 'A' <= c && c <= 'F':
			v = v<<4 | rune(c-'A'+10)
		default:
			return 0, p.errAt("invalid \\u escape")
		}
		p.pos++
	}
	return v, nil
}

// peekU reads a \uXXXX sequence at b without consuming, returning
// (value, 6) or (0, 0). Mirrors encoding/json's getu4 probe for the low
// half of a surrogate pair.
func peekU(b []byte) (rune, int) {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return 0, 0
	}
	var v rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			v = v<<4 | rune(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | rune(c-'a'+10)
		case 'A' <= c && c <= 'F':
			v = v<<4 | rune(c-'A'+10)
		default:
			return 0, 0
		}
	}
	return v, 6
}

// string decodes a JSON string into dst, matching encoding/json's
// unquote: full escape set, surrogate pairs, lone surrogates and
// invalid UTF-8 replaced with U+FFFD, control characters rejected.
func (p *wireParser) string(dst []byte) ([]byte, error) {
	if p.pos >= len(p.data) || p.data[p.pos] != '"' {
		return dst, p.errAt("expected string")
	}
	p.pos++
	for {
		if p.pos >= len(p.data) {
			return dst, errUnexpectedEnd
		}
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			return dst, nil
		case c == '\\':
			p.pos++
			if p.pos >= len(p.data) {
				return dst, errUnexpectedEnd
			}
			switch e := p.data[p.pos]; e {
			case '"', '\\', '/':
				dst = append(dst, e)
				p.pos++
			case 'b':
				dst = append(dst, '\b')
				p.pos++
			case 'f':
				dst = append(dst, '\f')
				p.pos++
			case 'n':
				dst = append(dst, '\n')
				p.pos++
			case 'r':
				dst = append(dst, '\r')
				p.pos++
			case 't':
				dst = append(dst, '\t')
				p.pos++
			case 'u':
				p.pos++
				r, err := p.hex4()
				if err != nil {
					return dst, err
				}
				if utf16.IsSurrogate(r) {
					// A valid pair combines; anything else leaves U+FFFD
					// for this half and reprocesses what follows, exactly
					// as encoding/json's unquote does.
					if r2, n := peekU(p.data[p.pos:]); n > 0 {
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							p.pos += n
							dst = utf8.AppendRune(dst, dec)
							continue
						}
					}
					r = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, r)
			default:
				return dst, p.errAt("invalid escape character in string")
			}
		case c < 0x20:
			return dst, p.errAt("control character in string")
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			p.pos++
		default:
			r, size := utf8.DecodeRune(p.data[p.pos:])
			p.pos += size
			dst = utf8.AppendRune(dst, r) // invalid bytes become U+FFFD
		}
	}
}

// skipString validates a string without decoding it: escapes checked,
// control characters rejected, raw bytes otherwise accepted (the
// encoding/json scanner does not validate UTF-8 either).
func (p *wireParser) skipString() error {
	if p.pos >= len(p.data) || p.data[p.pos] != '"' {
		return p.errAt("expected string")
	}
	p.pos++
	for {
		if p.pos >= len(p.data) {
			return errUnexpectedEnd
		}
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			return nil
		case c == '\\':
			p.pos++
			if p.pos >= len(p.data) {
				return errUnexpectedEnd
			}
			switch p.data[p.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p.pos++
			case 'u':
				p.pos++
				if _, err := p.hex4(); err != nil {
					return err
				}
			default:
				return p.errAt("invalid escape character in string")
			}
		case c < 0x20:
			return p.errAt("control character in string")
		default:
			p.pos++
		}
	}
}

// scanNumber validates a JSON number without converting it.
func (p *wireParser) scanNumber() error {
	if p.pos < len(p.data) && p.data[p.pos] == '-' {
		p.pos++
	}
	switch {
	case p.pos >= len(p.data):
		return errUnexpectedEnd
	case p.data[p.pos] == '0':
		p.pos++
	case '1' <= p.data[p.pos] && p.data[p.pos] <= '9':
		for p.pos < len(p.data) && '0' <= p.data[p.pos] && p.data[p.pos] <= '9' {
			p.pos++
		}
	default:
		return p.errAt("invalid number")
	}
	if p.pos < len(p.data) && p.data[p.pos] == '.' {
		p.pos++
		if p.pos >= len(p.data) || p.data[p.pos] < '0' || p.data[p.pos] > '9' {
			return p.errAt("invalid number")
		}
		for p.pos < len(p.data) && '0' <= p.data[p.pos] && p.data[p.pos] <= '9' {
			p.pos++
		}
	}
	if p.pos < len(p.data) && (p.data[p.pos] == 'e' || p.data[p.pos] == 'E') {
		p.pos++
		if p.pos < len(p.data) && (p.data[p.pos] == '+' || p.data[p.pos] == '-') {
			p.pos++
		}
		if p.pos >= len(p.data) || p.data[p.pos] < '0' || p.data[p.pos] > '9' {
			return p.errAt("invalid number")
		}
		for p.pos < len(p.data) && '0' <= p.data[p.pos] && p.data[p.pos] <= '9' {
			p.pos++
		}
	}
	return nil
}

// int parses a JSON integer with strconv.ParseInt semantics as
// encoding/json applies them to an int field: no leading zeros beyond a
// lone 0, no fraction or exponent, int64 range. Error labeling is the
// caller's job (the error path may allocate; this path must not).
func (p *wireParser) int() (int, error) {
	neg := false
	if p.pos < len(p.data) && p.data[p.pos] == '-' {
		neg = true
		p.pos++
	}
	if p.pos >= len(p.data) || p.data[p.pos] < '0' || p.data[p.pos] > '9' {
		return 0, p.errAt("expected integer")
	}
	if p.data[p.pos] == '0' && p.pos+1 < len(p.data) && '0' <= p.data[p.pos+1] && p.data[p.pos+1] <= '9' {
		return 0, p.errAt("invalid number literal")
	}
	var v uint64
	for p.pos < len(p.data) && '0' <= p.data[p.pos] && p.data[p.pos] <= '9' {
		if v > (math.MaxUint64-9)/10 {
			return 0, p.errAt("integer overflow")
		}
		v = v*10 + uint64(p.data[p.pos]-'0')
		p.pos++
	}
	if p.pos < len(p.data) && (p.data[p.pos] == '.' || p.data[p.pos] == 'e' || p.data[p.pos] == 'E') {
		return 0, p.errAt("expected integer, got number")
	}
	bound := uint64(math.MaxInt64)
	if neg {
		bound++
	}
	if v > bound {
		return 0, p.errAt("integer overflow")
	}
	if neg {
		return int(-v), nil
	}
	return int(v), nil
}

// skipValue consumes and syntactically validates one value of any type,
// tracking nesting depth — unknown fields get the same scrutiny
// encoding/json's scanner gives them.
func (p *wireParser) skipValue() error {
	p.skipSpace()
	if p.pos >= len(p.data) {
		return errUnexpectedEnd
	}
	switch c := p.data[p.pos]; {
	case c == '{':
		p.pos++
		p.depth++
		if p.depth > maxNestingDepth {
			return p.errAt("exceeded max nesting depth")
		}
		first := true
		for {
			p.skipSpace()
			if p.pos >= len(p.data) {
				return errUnexpectedEnd
			}
			if p.data[p.pos] == '}' {
				p.pos++
				p.depth--
				return nil
			}
			if !first {
				if p.data[p.pos] != ',' {
					return p.errAt("expected ',' or '}'")
				}
				p.pos++
				p.skipSpace()
			}
			first = false
			if err := p.skipString(); err != nil {
				return err
			}
			p.skipSpace()
			if p.pos >= len(p.data) || p.data[p.pos] != ':' {
				return p.errAt("expected ':'")
			}
			p.pos++
			if err := p.skipValue(); err != nil {
				return err
			}
		}
	case c == '[':
		p.pos++
		p.depth++
		if p.depth > maxNestingDepth {
			return p.errAt("exceeded max nesting depth")
		}
		first := true
		for {
			p.skipSpace()
			if p.pos >= len(p.data) {
				return errUnexpectedEnd
			}
			if p.data[p.pos] == ']' {
				p.pos++
				p.depth--
				return nil
			}
			if !first {
				if p.data[p.pos] != ',' {
					return p.errAt("expected ',' or ']'")
				}
				p.pos++
			}
			first = false
			if err := p.skipValue(); err != nil {
				return err
			}
		}
	case c == '"':
		return p.skipString()
	case c == 't':
		return p.literal("true")
	case c == 'f':
		return p.literal("false")
	case c == 'n':
		return p.literal("null")
	case c == '-' || ('0' <= c && c <= '9'):
		return p.scanNumber()
	default:
		return p.errAt("unexpected character")
	}
}

// key decodes the next object key into sc.key and consumes the
// following colon.
func (p *wireParser) key(sc *queryScratch) error {
	k, err := p.string(sc.key[:0])
	sc.key = k
	if err != nil {
		return err
	}
	p.skipSpace()
	if p.pos >= len(p.data) || p.data[p.pos] != ':' {
		return p.errAt("expected ':'")
	}
	p.pos++
	return nil
}

// parseQueryRequest decodes {"name": ..., "ranges": [{"lo":..,"hi":..},
// ...]} from sc.body, appending specs into sc.specs. maxSpecs bounds the
// batch during parsing. Returned name and specs alias the scratch's
// pooled buffers.
func parseQueryRequest(sc *queryScratch, maxSpecs int) (name string, specs []dphist.RangeSpec, err error) {
	p := wireParser{data: sc.body}
	sc.specs = sc.specs[:0]
	sc.str = sc.str[:0]
	hasName := false
	var st specState

	p.skipSpace()
	if p.pos >= len(p.data) {
		return "", nil, errUnexpectedEnd
	}
	if p.peekNull() {
		if err := p.literal("null"); err != nil {
			return "", nil, err
		}
		return "", nil, p.end()
	}
	if p.data[p.pos] != '{' {
		return "", nil, p.errAt("expected request object")
	}
	p.pos++
	p.depth++
	first := true
	for {
		p.skipSpace()
		if p.pos >= len(p.data) {
			return "", nil, errUnexpectedEnd
		}
		if p.data[p.pos] == '}' {
			p.pos++
			break
		}
		if !first {
			if p.data[p.pos] != ',' {
				return "", nil, p.errAt("expected ',' or '}'")
			}
			p.pos++
			p.skipSpace()
		}
		first = false
		if err := p.key(sc); err != nil {
			return "", nil, err
		}
		switch {
		case bytes.EqualFold(sc.key, nameField):
			p.skipSpace()
			if p.peekNull() {
				if err := p.literal("null"); err != nil {
					return "", nil, err
				}
				continue // null leaves the previous value in place
			}
			sc.str, err = p.string(sc.str[:0])
			if err != nil {
				return "", nil, fmt.Errorf("name: %w", err)
			}
			hasName = true
		case bytes.EqualFold(sc.key, rangesField):
			if err := p.parseRangeSpecs(sc, maxSpecs, &st); err != nil {
				return "", nil, err
			}
		default:
			if err := p.skipValue(); err != nil {
				return "", nil, err
			}
		}
	}
	p.depth--
	if err := p.end(); err != nil {
		return "", nil, err
	}
	if hasName {
		name = sc.internName()
	}
	if !st.got {
		return name, nil, nil
	}
	return name, sc.specs, nil
}

// specState tracks one request's spec-array decoding across duplicate
// keys: got distinguishes "ranges present (possibly empty)" from
// absent, hw is the high-water element count written this request —
// the slots a later duplicate array may inherit from, mirroring
// encoding/json's reuse of slice capacity it allocated earlier in the
// same Unmarshal.
type specState struct {
	got bool
	hw  int
}

var (
	nameField   = []byte("name")
	rangesField = []byte("ranges")
	rectsField  = []byte("rects")
	loField     = []byte("lo")
	hiField     = []byte("hi")
	x0Field     = []byte("x0")
	y0Field     = []byte("y0")
	x1Field     = []byte("x1")
	y1Field     = []byte("y1")
)

// parseRangeSpecs decodes the "ranges" array value into sc.specs. A
// null value is a no-op (previous value kept). On a duplicate key the
// new array decodes over the previous one's elements — a slot's fields
// survive unless the new element overwrites them — because that is what
// encoding/json does when it re-decodes a field into an existing slice,
// and FuzzQueryRequestParse holds this parser to that behavior.
func (p *wireParser) parseRangeSpecs(sc *queryScratch, maxSpecs int, st *specState) error {
	p.skipSpace()
	if p.peekNull() {
		// Unlike scalar fields, null decoded into a slice sets it to
		// nil: discard everything an earlier duplicate key accumulated.
		*st = specState{}
		sc.specs = sc.specs[:0]
		return p.literal("null")
	}
	if p.pos >= len(p.data) || p.data[p.pos] != '[' {
		return p.errAt("ranges: expected array")
	}
	p.pos++
	p.depth++
	if p.depth > maxNestingDepth {
		return p.errAt("exceeded max nesting depth")
	}
	specs := sc.specs[:st.hw] // slots an earlier duplicate key wrote
	st.got = true
	n := 0
	first := true
	for {
		p.skipSpace()
		if p.pos >= len(p.data) {
			return errUnexpectedEnd
		}
		if p.data[p.pos] == ']' {
			p.pos++
			p.depth--
			if len(specs) > st.hw {
				st.hw = len(specs)
			}
			sc.specs = specs[:n]
			return nil
		}
		if !first {
			if p.data[p.pos] != ',' {
				return p.errAt("ranges: expected ',' or ']'")
			}
			p.pos++
			p.skipSpace()
		}
		first = false
		if n >= maxSpecs {
			return fmt.Errorf("batch exceeds limit of %d ranges", maxSpecs)
		}
		taken := n
		if specs, n = p.exactRanges(specs, n, maxSpecs); n > taken {
			continue
		}
		var spec dphist.RangeSpec
		if n < len(specs) {
			spec = specs[n]
		}
		if err := p.parseRangeSpec(sc, n, &spec); err != nil {
			return err
		}
		if n < len(specs) {
			specs[n] = spec
		} else {
			specs = append(specs, spec)
		}
		n++
	}
}

// parseRangeSpec decodes one {"lo":..,"hi":..} element (or null, the
// zero spec). Errors name the element index — the 400 the analyst sees
// points at the offending spec.
func (p *wireParser) parseRangeSpec(sc *queryScratch, i int, spec *dphist.RangeSpec) error {
	if p.peekNull() {
		return p.literal("null")
	}
	if p.pos >= len(p.data) || p.data[p.pos] != '{' {
		return p.errAt(fmt.Sprintf("ranges[%d]: expected object", i))
	}
	p.pos++
	p.depth++
	if p.depth > maxNestingDepth {
		return p.errAt("exceeded max nesting depth")
	}
	first := true
	for {
		p.skipSpace()
		if p.pos >= len(p.data) {
			return errUnexpectedEnd
		}
		if p.data[p.pos] == '}' {
			p.pos++
			p.depth--
			return nil
		}
		if !first {
			if p.data[p.pos] != ',' {
				return p.errAt(fmt.Sprintf("ranges[%d]: expected ',' or '}'", i))
			}
			p.pos++
			p.skipSpace()
		}
		first = false
		if err := p.key(sc); err != nil {
			return err
		}
		var dst *int
		switch {
		case bytes.EqualFold(sc.key, loField):
			dst = &spec.Lo
		case bytes.EqualFold(sc.key, hiField):
			dst = &spec.Hi
		default:
			if err := p.skipValue(); err != nil {
				return err
			}
			continue
		}
		p.skipSpace()
		if p.peekNull() {
			if err := p.literal("null"); err != nil {
				return err
			}
			continue
		}
		v, err := p.int()
		if err != nil {
			return fmt.Errorf("ranges[%d].%s: %w", i, sc.key, err)
		}
		*dst = v
	}
}

// parseQuery2DRequest is parseQueryRequest for {"name": ..., "rects":
// [{"x0":..,"y0":..,"x1":..,"y1":..}, ...]}.
func parseQuery2DRequest(sc *queryScratch, maxSpecs int) (name string, rects []dphist.RectSpec, err error) {
	p := wireParser{data: sc.body}
	sc.rects = sc.rects[:0]
	sc.str = sc.str[:0]
	hasName := false
	var st specState

	p.skipSpace()
	if p.pos >= len(p.data) {
		return "", nil, errUnexpectedEnd
	}
	if p.peekNull() {
		if err := p.literal("null"); err != nil {
			return "", nil, err
		}
		return "", nil, p.end()
	}
	if p.data[p.pos] != '{' {
		return "", nil, p.errAt("expected request object")
	}
	p.pos++
	p.depth++
	first := true
	for {
		p.skipSpace()
		if p.pos >= len(p.data) {
			return "", nil, errUnexpectedEnd
		}
		if p.data[p.pos] == '}' {
			p.pos++
			break
		}
		if !first {
			if p.data[p.pos] != ',' {
				return "", nil, p.errAt("expected ',' or '}'")
			}
			p.pos++
			p.skipSpace()
		}
		first = false
		if err := p.key(sc); err != nil {
			return "", nil, err
		}
		switch {
		case bytes.EqualFold(sc.key, nameField):
			p.skipSpace()
			if p.peekNull() {
				if err := p.literal("null"); err != nil {
					return "", nil, err
				}
				continue
			}
			sc.str, err = p.string(sc.str[:0])
			if err != nil {
				return "", nil, fmt.Errorf("name: %w", err)
			}
			hasName = true
		case bytes.EqualFold(sc.key, rectsField):
			if err := p.parseRectSpecs(sc, maxSpecs, &st); err != nil {
				return "", nil, err
			}
		default:
			if err := p.skipValue(); err != nil {
				return "", nil, err
			}
		}
	}
	p.depth--
	if err := p.end(); err != nil {
		return "", nil, err
	}
	if hasName {
		name = sc.internName()
	}
	if !st.got {
		return name, nil, nil
	}
	return name, sc.rects, nil
}

// parseRectSpecs mirrors parseRangeSpecs' duplicate-key inheritance;
// see the comment there.
func (p *wireParser) parseRectSpecs(sc *queryScratch, maxSpecs int, st *specState) error {
	p.skipSpace()
	if p.peekNull() {
		*st = specState{}
		sc.rects = sc.rects[:0]
		return p.literal("null")
	}
	if p.pos >= len(p.data) || p.data[p.pos] != '[' {
		return p.errAt("rects: expected array")
	}
	p.pos++
	p.depth++
	if p.depth > maxNestingDepth {
		return p.errAt("exceeded max nesting depth")
	}
	rects := sc.rects[:st.hw] // slots an earlier duplicate key wrote
	st.got = true
	n := 0
	first := true
	for {
		p.skipSpace()
		if p.pos >= len(p.data) {
			return errUnexpectedEnd
		}
		if p.data[p.pos] == ']' {
			p.pos++
			p.depth--
			if len(rects) > st.hw {
				st.hw = len(rects)
			}
			sc.rects = rects[:n]
			return nil
		}
		if !first {
			if p.data[p.pos] != ',' {
				return p.errAt("rects: expected ',' or ']'")
			}
			p.pos++
			p.skipSpace()
		}
		first = false
		if n >= maxSpecs {
			return fmt.Errorf("batch exceeds limit of %d rectangles", maxSpecs)
		}
		taken := n
		if rects, n = p.exactRects(rects, n, maxSpecs); n > taken {
			continue
		}
		var spec dphist.RectSpec
		if n < len(rects) {
			spec = rects[n]
		}
		if err := p.parseRectSpec(sc, n, &spec); err != nil {
			return err
		}
		if n < len(rects) {
			rects[n] = spec
		} else {
			rects = append(rects, spec)
		}
		n++
	}
}

func (p *wireParser) parseRectSpec(sc *queryScratch, i int, spec *dphist.RectSpec) error {
	if p.peekNull() {
		return p.literal("null")
	}
	if p.pos >= len(p.data) || p.data[p.pos] != '{' {
		return p.errAt(fmt.Sprintf("rects[%d]: expected object", i))
	}
	p.pos++
	p.depth++
	if p.depth > maxNestingDepth {
		return p.errAt("exceeded max nesting depth")
	}
	first := true
	for {
		p.skipSpace()
		if p.pos >= len(p.data) {
			return errUnexpectedEnd
		}
		if p.data[p.pos] == '}' {
			p.pos++
			p.depth--
			return nil
		}
		if !first {
			if p.data[p.pos] != ',' {
				return p.errAt(fmt.Sprintf("rects[%d]: expected ',' or '}'", i))
			}
			p.pos++
			p.skipSpace()
		}
		first = false
		if err := p.key(sc); err != nil {
			return err
		}
		var dst *int
		switch {
		case bytes.EqualFold(sc.key, x0Field):
			dst = &spec.X0
		case bytes.EqualFold(sc.key, y0Field):
			dst = &spec.Y0
		case bytes.EqualFold(sc.key, x1Field):
			dst = &spec.X1
		case bytes.EqualFold(sc.key, y1Field):
			dst = &spec.Y1
		default:
			if err := p.skipValue(); err != nil {
				return err
			}
			continue
		}
		p.skipSpace()
		if p.peekNull() {
			if err := p.literal("null"); err != nil {
				return err
			}
			continue
		}
		v, err := p.int()
		if err != nil {
			return fmt.Errorf("rects[%d].%s: %w", i, sc.key, err)
		}
		*dst = v
	}
}

// --- exact-shape fast path ---

// exactRanges parses the run of ranges elements at the cursor written
// exactly as {"lo":D,"hi":D} and separated by bare commas. It stores
// them from specs[n] on, writing both fields of each, as parseRangeSpec
// would for the same bytes, and stops before maxSpecs. It returns the
// grown slice and count, with the cursor just past the last element it
// took. An element it does not take is left unread, from its first byte
// (or the comma before it), for the general parser, which decodes it
// and reports errors exactly as before.
func (p *wireParser) exactRanges(specs []dphist.RangeSpec, n, maxSpecs int) ([]dphist.RangeSpec, int) {
	s, i := p.data, p.pos
	for n < maxSpecs && i < len(s) && s[i] == '{' {
		lo, j := exactField(s, i+1, "lo", ',')
		hi, k := exactField(s, j, "hi", '}')
		if j == 0 || k == 0 {
			break
		}
		spec := dphist.RangeSpec{Lo: lo, Hi: hi}
		if n < len(specs) {
			specs[n] = spec
		} else {
			specs = append(specs, spec)
		}
		n++
		p.pos = k
		if k == len(s) || s[k] != ',' {
			break
		}
		i = k + 1
	}
	return specs, n
}

// exactRects is exactRanges for {"x0":D,"y0":D,"x1":D,"y1":D}.
func (p *wireParser) exactRects(rects []dphist.RectSpec, n, maxSpecs int) ([]dphist.RectSpec, int) {
	s, i := p.data, p.pos
	for n < maxSpecs && i < len(s) && s[i] == '{' {
		x0, j := exactField(s, i+1, "x0", ',')
		y0, k := exactField(s, j, "y0", ',')
		x1, l := exactField(s, k, "x1", ',')
		y1, m := exactField(s, l, "y1", '}')
		if j == 0 || k == 0 || l == 0 || m == 0 {
			break
		}
		spec := dphist.RectSpec{X0: x0, Y0: y0, X1: x1, Y1: y1}
		if n < len(rects) {
			rects[n] = spec
		} else {
			rects = append(rects, spec)
		}
		n++
		p.pos = m
		if m == len(s) || s[m] != ',' {
			break
		}
		i = m + 1
	}
	return rects, n
}

// maxExactDigits bounds the fast path's numbers: 18 decimal digits stay
// below 10^18 < 2^63, so no digit needs an overflow check.
const maxExactDigits = 18

// exactField matches "key":D followed by the byte term at s[at:], for a
// two-byte key, and returns D and the offset just past term. D is 1 to
// maxExactDigits ASCII digits with no leading zero beyond a lone 0.
// Anything else (whitespace, a sign, a fraction or exponent, a 19th
// digit, an escaped or differently cased key) returns offset 0, and so
// does at == 0, which lets callers chain fields and check once.
func exactField(s []byte, at int, key string, term byte) (int, int) {
	if at == 0 {
		return 0, 0
	}
	s = s[at:]
	if len(s) < len(`"xx":0,`) || s[0] != '"' || s[1] != key[0] || s[2] != key[1] || s[3] != '"' || s[4] != ':' {
		return 0, 0
	}
	d := s[len(`"xx":`):]
	if d[0] == '0' {
		if d[1] != term {
			return 0, 0
		}
		return 0, at + len(`"xx":0,`)
	}
	v, n := 0, 0
	for ; n < len(d) && n < maxExactDigits; n++ {
		c := d[n] - '0'
		if c > 9 {
			break
		}
		v = v*10 + int(c)
	}
	if n == 0 || n == len(d) || d[n] != term {
		return 0, 0
	}
	return v, at + len(`"xx":`) + n + 1
}

// --- response encoding ---

// appendQueryResponse appends the query/query2d success payload —
// {"namespace":...,"name":...,"version":N,"strategy":...,"answers":[...]}
// plus the trailing newline json.Encoder emits — so the wire bytes are
// indistinguishable from the reflection path's.
func appendQueryResponse(b []byte, entry dphist.StoreEntry, answers []float64) ([]byte, error) {
	b = appendEntryHead(b, entry)
	b = append(b, `,"answers":[`...)
	var err error
	for i, v := range answers {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = jsonw.AppendFloat(b, v); err != nil {
			return b, err
		}
	}
	return append(b, ']', '}', '\n'), nil
}

// appendEntryHead opens a reply object with the fields the query and
// store-mint replies both lead with: the stored entry's namespace, name,
// version and strategy.
func appendEntryHead(b []byte, entry dphist.StoreEntry) []byte {
	b = append(b, `{"namespace":`...)
	b = jsonw.AppendString(b, entry.Namespace)
	b = append(b, `,"name":`...)
	b = jsonw.AppendString(b, entry.Name)
	b = append(b, `,"version":`...)
	b = strconv.AppendInt(b, int64(entry.Version), 10)
	b = append(b, `,"strategy":`...)
	return jsonw.AppendString(b, entry.Strategy.String())
}

// appendReleaseResponse appends the POST /v1/release reply, the bytes
// writeJSON(releaseResponse{...}) writes, with the release's wire
// encoding spliced in by dphist.AppendRelease instead of being marshaled
// and then scanned twice more as a json.RawMessage.
func appendReleaseResponse(b []byte, eps float64, domain int, release dphist.Release, auto *dphist.AutoDecision, remaining float64) ([]byte, error) {
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, dphist.WireVersion, 10)
	b = append(b, `,"strategy":`...)
	b = jsonw.AppendString(b, release.Strategy().String())
	b = append(b, `,"epsilon":`...)
	b, err := jsonw.AppendFloat(b, eps)
	if err != nil {
		return b, err
	}
	b = append(b, `,"domain":`...)
	b = strconv.AppendInt(b, int64(domain), 10)
	return appendReleaseTail(b, release, auto, remaining)
}

// appendStoreReleaseResponse appends the POST /v1/releases reply, the
// bytes writeJSON(storeReleaseResponse{...}) writes, splicing in the
// release the way appendReleaseResponse does.
func appendStoreReleaseResponse(b []byte, entry dphist.StoreEntry, release dphist.Release, auto *dphist.AutoDecision, remaining float64) ([]byte, error) {
	b = appendEntryHead(b, entry)
	b = append(b, `,"epsilon":`...)
	b, err := jsonw.AppendFloat(b, entry.Epsilon)
	if err != nil {
		return b, err
	}
	b = append(b, `,"domain":`...)
	b = strconv.AppendInt(b, int64(entry.Domain), 10)
	b = append(b, `,"stored_at":`...)
	if b, err = jsonw.AppendTime(b, entry.StoredAt); err != nil {
		return b, err
	}
	return appendReleaseTail(b, release, auto, remaining)
}

// appendReleaseTail closes both mint replies: the release payload, the
// auto decision when there is one, the remaining budget, and the
// trailing newline.
func appendReleaseTail(b []byte, release dphist.Release, auto *dphist.AutoDecision, remaining float64) ([]byte, error) {
	b = append(b, `,"release":`...)
	b, err := dphist.AppendRelease(b, release)
	if err != nil {
		return b, err
	}
	if auto != nil {
		dec, err := json.Marshal(auto)
		if err != nil {
			return b, err
		}
		b = append(b, `,"auto":`...)
		b = append(b, dec...)
	}
	b = append(b, `,"budget_remaining":`...)
	if b, err = jsonw.AppendFloat(b, remaining); err != nil {
		return b, err
	}
	return append(b, '}', '\n'), nil
}

// nsView returns the namespace handle for ns and whether it came from
// the cache that spares the hot path a view allocation per request. The
// query handlers cache a fresh view only after a query through it found
// a live release, which proves the namespace exists: a probe for an
// arbitrary name neither scans the store nor grows server state.
func (s *Server) nsView(ns string) (*dphist.Namespace, bool) {
	if v, ok := s.nsViews.Load(ns); ok {
		return v.(*dphist.Namespace), true
	}
	return s.store.Namespace(ns), false
}

// serveQueryError maps a query failure onto the same statuses the
// reflection path used: unknown release is 404, anything else about the
// request (malformed spec, wrong dimensionality) is the analyst's 400.
func (s *Server) serveQueryError(w http.ResponseWriter, err error) {
	if errors.Is(err, dphist.ErrReleaseNotFound) {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
}

// writeQueryResponse encodes into the scratch's pooled output buffer
// and writes it.
func (s *Server) writeQueryResponse(w http.ResponseWriter, sc *queryScratch, entry dphist.StoreEntry, answers []float64) {
	out, err := appendQueryResponse(sc.out[:0], entry, answers)
	sc.out = out
	s.writeAppended(w, out, err)
}

// writeAppended writes a success reply built by one of the append
// encoders above. A failed encode (a NaN or Inf in the payload) is a
// server-side fault: counted, 500, nothing half-written.
func (s *Server) writeAppended(w http.ResponseWriter, out []byte, err error) {
	if err != nil {
		s.encodeErrors.Add(1)
		s.writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "encoding response: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
}
