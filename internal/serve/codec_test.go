package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cosma"
)

// sameRequest reports whether two decoded requests agree in every
// field, the payload words bit for bit.
func sameRequest(a, b MultiplyRequest) bool {
	return a.M == b.M && a.N == b.N && a.K == b.K && sameBits(a.A, b.A) && sameBits(a.B, b.B)
}

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// FuzzDecodeRequest checks the codec against encoding/json: whatever
// body decodeRequest accepts — by the direct scanner or its fallback —
// json.Unmarshal accepts too, with bitwise-equal fields, and the
// scanner never reserves more words than the body could hold.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range []string{
		`{"m":2,"n":2,"k":2,"a":[1,2,3,4],"b":[5,6,7,8]}`,
		`{"m":1,"n":2,"k":3,"a":[0.1,-2.5,3e-7],"b":[1,2,3,4,5,6]}`,
		" \t\r\n{ \"m\" : 1 ,\n\"n\":1,\"k\":1, \"a\" : [ 2 ] , \"b\":[3 ] }\n ",
		`{"b":[3],"a":[2],"k":1,"n":1,"m":1}`,                          // reordered
		`{"m":1,"n":1,"k":1,"a":[2],"b":[3],"a":[4]}`,                  // duplicate key
		`{"M":1,"N":1,"K":1,"A":[2],"B":[3]}`,                          // key case
		`{"\u006d":1,"n":1,"k":1,"a":[2],"b":[3]}`,                     // escaped key
		`{"m":1,"n":1,"k":1,"a":[2],"b":[3],"extra":true}`,             // unknown field
		`{"m":1,"n":1,"k":1,"a":[-0],"b":[5e-324]}`,                    // signed zero, least subnormal
		`{"m":1,"n":1,"k":1,"a":[1E+2],"b":[1e-2]}`,                    // exponent forms
		`{"m":1,"n":1,"k":1,"a":[1.7976931348623157e308],"b":[1e309]}`, // out of range
		`{"m":1,"n":1,"k":1,"a":[01],"b":[1]}`,                         // leading zero
		`{"m":1,"n":1,"k":1,"a":[.5],"b":[1]}`,
		`{"m":1,"n":1,"k":1,"a":[+1],"b":[1]}`,
		`{"m":1,"n":1,"k":1,"a":[Infinity],"b":[NaN]}`,
		`{"m":1,"n":1,"k":1,"a":[1.],"b":[1e]}`,
		`{"m":1,"n":1,"k":1,"a":[null],"b":[1]}`,
		`{"m":null,"n":1,"k":1,"a":[1],"b":[1]}`,
		`{"m":1.0,"n":1,"k":1,"a":[1],"b":[1]}`, // fractional dim
		`{"m":-0,"n":-1,"k":1,"a":[],"b":[]}`,
		`{"m":8192,"n":8192,"k":8192,"a":[1],"b":[1]}`,
		`{"m":9223372036854775807,"n":9223372036854775807,"k":2,"a":[1],"b":[1]}`,
		`{"m":99999999999999999999,"n":1,"k":1,"a":[1],"b":[1]}`, // dim overflows int
		`{"m":1,"n":1,"k":1,"a":[2],"b":[3]} trailing`,
		`{"m":1,"n":1,"k":1,"a":[2],"b":[3]}{}`,
		`{"m":1,"n":1,"k":1,"a":[2],"b":[3],}`,
		`{"m":1,"n":1,"k":1,"a":[2,],"b":[3]}`,
		`{"m":1,"n":1,"k":1,"a":[2],"b":[3]`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if req, ok := scanRequest(body); ok {
			if cap(req.A) > len(body) || cap(req.B) > len(body) {
				t.Fatalf("scanner reserved %d and %d words for a %d-byte body", cap(req.A), cap(req.B), len(body))
			}
		}
		got, err := decodeRequest(body)
		if err != nil {
			return
		}
		var want MultiplyRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("decoded %q, which encoding/json refuses: %v", body, err)
		}
		if !sameRequest(got, want) {
			t.Fatalf("%q decodes to %+v, encoding/json to %+v", body, got, want)
		}
	})
}

func TestDecodeRequestRefusals(t *testing.T) {
	for _, body := range []string{
		`{"m":1,"n":1,"k":1,"a":[2],"b":[3]} trailing garbage`,
		`{"m":2,"n":2,"k":2,"a":[1,null,3,4],"b":[5,6,7,8]}`,
		`{"M":1,"N":1,"K":1,"A":[2],"B":[null]}`,
		`{"m":1,"n":1,"k":1,"a":[1e400],"b":[3]}`,
		`{"m":1,"n":1,"k":1,"a":[01],"b":[3]}`,
		``,
	} {
		if req, err := decodeRequest([]byte(body)); err == nil {
			t.Errorf("%q decoded to %+v, want an error", body, req)
		}
	}
}

// TestDecodePresizeBounded: dims announce 8192² words per operand but
// the body carries one each, and the reservation follows the body.
func TestDecodePresizeBounded(t *testing.T) {
	body := []byte(`{"m":8192,"n":8192,"k":8192,"a":[1],"b":[1]}`)
	req, err := decodeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if cap(req.A) > len(body) || cap(req.B) > len(body) {
		t.Fatalf("cap(A) = %d, cap(B) = %d for a %d-byte body", cap(req.A), cap(req.B), len(body))
	}
	if len(req.A) != 1 || len(req.B) != 1 {
		t.Fatalf("decoded %d and %d words, want 1 and 1", len(req.A), len(req.B))
	}
}

func encoderBytes(t *testing.T, r MultiplyResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendResponseMatchesEncoder pins the response bytes to
// json.Encoder's on the float format's edges, on random doubles across
// the exponent range, and on strings json escapes.
func TestAppendResponseMatchesEncoder(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-7, -1e-7, 1e-6, -1e-6,
		9.999999999999999e-7, 1.0000000000000002e-6, 1e-300, 1e20, 1e21, -1e21,
		999999999999999900000, 1.0000000000000002e21, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64 * 3, 1, -1, 42, 123456789, 1 << 53, 0.1, 1.0 / 3,
	}
	rng := rand.New(rand.NewSource(1))
	random := make([]float64, 0, 4000)
	for range 2000 {
		random = append(random, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
		if f := math.Float64frombits(rng.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
			random = append(random, f)
		}
	}
	for _, tc := range []MultiplyResponse{
		{M: 1, N: len(edges), C: edges, Algorithm: "cosma", Grid: "2×2×1", MaxRecv: 2596},
		{M: 2, N: len(random) / 2, C: random, Algorithm: "cannon", Grid: "4×4", MaxRecv: 1 << 40},
		{M: 0, N: 0, C: []float64{}, Algorithm: `<a&b>`, Grid: "q\"uote\\ \u2028 \x00 \xff", MaxRecv: -1},
		{M: -3, N: 7, C: nil},
	} {
		got, err := appendResponse([]byte("prefix"), tc)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte("prefix"), encoderBytes(t, tc)...)
		if !bytes.Equal(got, want) {
			t.Errorf("appendResponse differs from json.Encoder:\n got %s\nwant %s", got, want)
		}
	}
}

func TestAppendResponseRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := appendResponse(nil, MultiplyResponse{M: 1, N: 2, C: []float64{1, f}}); err != errNotFinite {
			t.Errorf("C holding %v: error %v, want errNotFinite", f, err)
		}
	}
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/multiply", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestHTTPBadBodiesAre400: an overflowing product, trailing data and a
// null element are the request's fault, answered 400 with a JSON error
// body (the overflow's naming the cause) — not a 200 with an empty
// body or a silently zeroed word.
func TestHTTPBadBodiesAre400(t *testing.T) {
	s := newTestServer(t, Options{})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	for _, tc := range []struct{ name, body, says string }{
		{"overflow", `{"m":1,"n":1,"k":1,"a":[1e308],"b":[1e308]}`, "overflow float64"},
		{"trailing data", `{"m":1,"n":1,"k":1,"a":[2],"b":[3]} trailing garbage`, "after top-level value"},
		{"null element", `{"m":2,"n":2,"k":2,"a":[1,null,3,4],"b":[5,6,7,8]}`, "a[1] is null"},
	} {
		status, raw := post(t, srv.URL, tc.body)
		var e errorResponse
		err := json.Unmarshal(raw, &e)
		if status != http.StatusBadRequest || err != nil || !strings.Contains(e.Error, tc.says) {
			t.Errorf("%s: %d %q (%v), want 400 with a JSON error saying %q", tc.name, status, raw, err, tc.says)
		}
	}
	if st := s.Stats(); st.Rejected != 3 {
		t.Fatalf("stats = %+v, want 3 rejections", st)
	}
}

// TestHTTPLenientBodiesStillServed: the fallback keeps what
// encoding/json always allowed — key case and unknown fields.
func TestHTTPLenientBodiesStillServed(t *testing.T) {
	s := newTestServer(t, Options{})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	for _, body := range []string{
		`{"M":1,"N":1,"K":1,"A":[2],"B":[3]}`,
		`{"m":1,"n":1,"k":1,"a":[2],"b":[3],"note":"unknown fields are ignored"}`,
		"\n{ \"b\" : [3], \"a\" : [2], \"k\":1, \"n\":1, \"m\":1 }\n",
	} {
		status, raw := post(t, srv.URL, body)
		var out MultiplyResponse
		if err := json.Unmarshal(raw, &out); err != nil || status != http.StatusOK || len(out.C) != 1 || out.C[0] != 6 {
			t.Errorf("%q: %d %s (%v), want 200 with c = [6]", body, status, raw, err)
		}
	}
}

// TestHTTPResponseMatchesEncoder: the served body is the bytes
// json.Encoder writes for the same product and report.
func TestHTTPResponseMatchesEncoder(t *testing.T) {
	s := newTestServer(t, Options{})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	a := cosma.RandomMatrix(24, 16, 1)
	b := cosma.RandomMatrix(16, 8, 2)
	body, _ := json.Marshal(MultiplyRequest{M: 24, N: 8, K: 16, A: a.Data, B: b.Data})
	status, raw := post(t, srv.URL, string(body))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	c, rep, err := s.Multiply(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := encoderBytes(t, MultiplyResponse{
		M: c.Rows, N: c.Cols, C: c.Data,
		Algorithm: rep.Name, Grid: rep.Grid, MaxRecv: rep.MaxRecv,
	})
	if !bytes.Equal(raw, want) {
		t.Fatalf("served body differs from json.Encoder's:\n got %s\nwant %s", raw, want)
	}
}

// BenchmarkCodec times one 64×64×64 request body decoded and its
// product encoded, by the codec and by encoding/json, on random
// full-precision doubles.
func BenchmarkCodec(b *testing.B) {
	const n = 64
	x, y := cosma.RandomMatrix(n, n, 1), cosma.RandomMatrix(n, n, 2)
	body, _ := json.Marshal(MultiplyRequest{M: n, N: n, K: n, A: x.Data, B: y.Data})
	resp := MultiplyResponse{M: n, N: n, C: x.Data, Algorithm: "COSMA", Grid: "[2×2×1]", MaxRecv: 2048}
	b.Run("decode/direct", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for range b.N {
			if _, err := decodeRequest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for range b.N {
			var req MultiplyRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/direct", func(b *testing.B) {
		var buf []byte
		for range b.N {
			buf, _ = appendResponse(buf[:0], resp)
		}
	})
	b.Run("encode/encoding-json", func(b *testing.B) {
		var buf bytes.Buffer
		for range b.N {
			buf.Reset()
			json.NewEncoder(&buf).Encode(resp)
		}
	})
}
