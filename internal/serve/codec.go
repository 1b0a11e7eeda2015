package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// The multiply endpoint's codec. Its payloads are two float arrays in
// and one out, and reflection-driven encoding/json spends most of a
// small request's time on them. So the canonical request body is
// scanned directly and the response is appended straight into a
// buffer; both follow encoding/json's rules exactly:
//
//   - Decoding accepts only what encoding/json accepts, with
//     bitwise-equal values (both call strconv.ParseFloat on the same
//     literal). Any body the scanner is unsure of — other keys, key
//     case or escapes, duplicate keys, null, a number outside JSON's
//     grammar — is handed to encoding/json on the same bytes.
//   - Encoding writes the bytes json.Encoder would write, and refuses a
//     non-finite product (which json.Encoder cannot encode) before a
//     byte reaches the client.

// maxPooled bounds the buffers kept for reuse, and the presizing of a
// body buffer from Content-Length: a rare huge request must not pin
// its buffer in the pool, nor reserve memory for a length it claims
// but never sends.
const maxPooled = 4 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(p *[]byte) {
	if cap(*p) > maxPooled {
		return
	}
	*p = (*p)[:0]
	bufPool.Put(p)
}

// readRequest reads and decodes a multiply body. The body goes through
// a pooled buffer; the returned A and B are fresh slices, never
// pooled, because a request abandoned at its deadline leaves its batch
// still reading them.
func readRequest(r *http.Request) (MultiplyRequest, error) {
	p := getBuf()
	defer putBuf(p)
	body, err := readAll(r.Body, *p, r.ContentLength)
	*p = body
	if err != nil {
		return MultiplyRequest{}, fmt.Errorf("reading request: %w", err)
	}
	return decodeRequest(body)
}

// readAll appends r's bytes to buf, first growing it to hold size
// bytes (capped at maxPooled) when the length is known.
func readAll(r io.Reader, buf []byte, size int64) ([]byte, error) {
	// One spare byte, so the read that reports EOF needs no growth.
	if want := min(size, maxPooled) + 1; size > 0 && int64(cap(buf)) < want {
		buf = make([]byte, 0, want)
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeRequest decodes a multiply body: the direct scanner when the
// body is canonical, encoding/json otherwise.
func decodeRequest(body []byte) (MultiplyRequest, error) {
	if req, ok := scanRequest(body); ok {
		return req, nil
	}
	return decodeFallback(body)
}

// decodeFallback decodes any body the scanner passed on. json.Unmarshal
// rejects trailing data, and the arrays decode through pointers so
// that a null element is an error rather than a silent 0.
func decodeFallback(body []byte) (MultiplyRequest, error) {
	var in struct {
		M int        `json:"m"`
		N int        `json:"n"`
		K int        `json:"k"`
		A []*float64 `json:"a"`
		B []*float64 `json:"b"`
	}
	if err := json.Unmarshal(body, &in); err != nil {
		return MultiplyRequest{}, fmt.Errorf("decoding request: %w", err)
	}
	a, err := derefAll("a", in.A)
	if err != nil {
		return MultiplyRequest{}, err
	}
	b, err := derefAll("b", in.B)
	if err != nil {
		return MultiplyRequest{}, err
	}
	return MultiplyRequest{M: in.M, N: in.N, K: in.K, A: a, B: b}, nil
}

func derefAll(name string, ps []*float64) ([]float64, error) {
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p == nil {
			return nil, fmt.Errorf("decoding request: %s[%d] is null", name, i)
		}
		out[i] = *p
	}
	return out, nil
}

// scanRequest parses the canonical body: one object whose keys are
// exactly m, n, k, a and b, once each and in any order, with integer
// dims and arrays of JSON numbers, surrounded by nothing but
// whitespace. ok is false for anything else, and then the body's fate
// is left to encoding/json.
func scanRequest(body []byte) (req MultiplyRequest, ok bool) {
	s := scanner{b: body}
	// Every element takes at least two bytes (a digit and a comma), so
	// no array can hold more words than this whatever the dims claim.
	limit := len(body)/2 + 1
	if !s.next('{') {
		return req, false
	}
	var seen [256]bool
	for i := range 5 {
		if i > 0 && !s.next(',') {
			return req, false
		}
		key, ok := s.key()
		if !ok || seen[key] {
			return req, false
		}
		seen[key] = true
		switch key {
		case 'm':
			req.M, ok = s.int()
		case 'n':
			req.N, ok = s.int()
		case 'k':
			req.K, ok = s.int()
		case 'a':
			req.A, ok = s.floats(presize(req.M, req.K, seen['m'] && seen['k'], limit))
		case 'b':
			req.B, ok = s.floats(presize(req.K, req.N, seen['k'] && seen['n'], limit))
		default:
			return req, false
		}
		if !ok {
			return req, false
		}
	}
	if !s.next('}') {
		return req, false
	}
	s.space()
	return req, s.i == len(s.b)
}

// presize returns an empty slice with room for the x·y words the dims
// announce, capped at limit (and none when the dims are not known yet).
func presize(x, y int, known bool, limit int) []float64 {
	n := 0
	if known && x > 0 && y > 0 {
		n = limit
		if x <= limit/y {
			n = min(x*y, limit)
		}
	}
	return make([]float64, 0, n)
}

// scanner walks a JSON body; each method skips leading whitespace.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c if it is the next token.
func (s *scanner) next(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key consumes a one-letter key and its colon, `"x":`.
func (s *scanner) key() (byte, bool) {
	s.space()
	if s.i+2 >= len(s.b) || s.b[s.i] != '"' || s.b[s.i+2] != '"' {
		return 0, false
	}
	k := s.b[s.i+1]
	s.i += 3
	return k, s.next(':')
}

// number consumes a literal of JSON's number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it with
// whether it is an integer (no fraction or exponent); nil when there
// is none. What follows it is the caller's to check.
func (s *scanner) number() (lit []byte, integer bool) {
	s.space()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i, integer = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false
		}
		i, integer = j, false
	}
	lit, s.i = b[s.i:i], i
	return lit, integer
}

// digits returns the index just past the run of digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// int consumes an integer dim, as encoding/json decodes one into an
// int: no fraction or exponent, and within int's range.
func (s *scanner) int() (int, bool) {
	lit, integer := s.number()
	if !integer {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(v), err == nil
}

// floats consumes an array of numbers, appending them to dst.
func (s *scanner) floats(dst []float64) ([]float64, bool) {
	if !s.next('[') {
		return nil, false
	}
	if s.next(']') {
		return dst, true
	}
	for {
		lit, _ := s.number()
		if lit == nil {
			return nil, false
		}
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil { // out of float64's range: encoding/json's error
			return nil, false
		}
		dst = append(dst, f)
		if s.next(',') {
			continue
		}
		return dst, s.next(']')
	}
}

// errNotFinite answers a product that overflowed: JSON has no spelling
// for ±Inf or NaN. Finite JSON inputs can still multiply past float64's
// range, so it is the request's fault.
var errNotFinite = errors.New("serve: the product is not finite — the inputs overflow float64")

// appendResponse appends r as json.Encoder encodes it, newline
// included. It fails without a partial answer when C holds ±Inf or
// NaN.
func appendResponse(dst []byte, r MultiplyResponse) ([]byte, error) {
	dst = append(dst, `{"m":`...)
	dst = strconv.AppendInt(dst, int64(r.M), 10)
	dst = append(dst, `,"n":`...)
	dst = strconv.AppendInt(dst, int64(r.N), 10)
	dst = append(dst, `,"c":`...)
	if r.C == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, f := range r.C {
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return dst, errNotFinite
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, f)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"algorithm":`...)
	dst = appendString(dst, r.Algorithm)
	dst = append(dst, `,"grid":`...)
	dst = appendString(dst, r.Grid)
	dst = append(dst, `,"max_recv_words":`...)
	dst = strconv.AppendInt(dst, r.MaxRecv, 10)
	return append(dst, "}\n"...), nil
}

// appendFloat is encoding/json's float64 rule: the shortest
// round-tripping digits, in 'f' form for 1e-6 ≤ |f| < 1e21 and in 'e'
// form otherwise with a two-digit negative exponent cut to one
// (e-07 → e-7).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendString quotes s with json.Marshal itself, so its escaping
// (HTML characters included) cannot drift from json.Encoder's.
func appendString(dst []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always marshals
	return append(dst, q...)
}
