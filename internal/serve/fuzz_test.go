package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"cosma"
)

// FuzzMultiplyHandler throws arbitrary bodies at POST /v1/multiply
// through a real server with a tiny admission bound. The invariants:
// the handler never panics, never hangs, and always answers one of
// the documented statuses — 200 for a well-formed multiplication,
// 400 for garbage, 429 when shedding, 503 while draining — and every
// 200 carries a whole m×n product that decodes as JSON.
func FuzzMultiplyHandler(f *testing.F) {
	srv, err := New(Options{
		Engine: []cosma.Option{cosma.WithProcs(2), cosma.WithMemory(1 << 10)},
		Shards: 1,
		MaxDim: 8, // keeps a fuzzed 200 response to a handful of flops
	})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(Handler(srv))
	f.Cleanup(ts.Close)

	f.Add([]byte(`{"m":2,"n":2,"k":2,"a":[1,2,3,4],"b":[5,6,7,8]}`))
	f.Add([]byte(`{"m":1,"n":1,"k":1,"a":[2],"b":[3]}`))
	f.Add([]byte(`{"m":0,"n":0,"k":0}`))
	f.Add([]byte(`{"m":-1,"n":2,"k":2,"a":[],"b":[]}`))
	f.Add([]byte(`{"m":2,"n":2,"k":2,"a":[1],"b":[1]}`)) // wrong payload length
	f.Add([]byte(`{"m":9,"n":9,"k":9,"a":[1],"b":[1]}`)) // beyond MaxDim
	f.Add([]byte(`{"m":1e9,"n":1e9,"k":1e9}`))           // huge dims, no payload
	f.Add([]byte(`{"a":[1,2],"b":`))                     // truncated JSON
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"m":2,"n":2,"k":2,"a":[1,null,3,4],"b":[5,6,7,8]}`))
	f.Add([]byte(`{"m":1,"n":1,"k":1,"a":[1e308],"b":[1e308]}`)) // product overflows

	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(ts.URL+"/v1/multiply", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("transport error: %v", err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("reading response: %v", err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var out MultiplyResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatalf("200 body %q for request %q: %v", raw, body, err)
			}
			if len(out.C) != out.M*out.N {
				t.Fatalf("200 body for request %q is %d×%d with %d words", body, out.M, out.N, len(out.C))
			}
		case http.StatusBadRequest,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q", resp.StatusCode, body)
		}
	})
}
