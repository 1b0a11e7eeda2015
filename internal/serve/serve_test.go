package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cosma"
)

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Engine == nil {
		opts.Engine = []cosma.Option{cosma.WithProcs(4), cosma.WithMemory(1 << 14)}
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// reference multiplies on a directly-built engine with the test
// server's options: the schedule is deterministic, so the server's
// answer must be bitwise-identical.
func reference(t *testing.T, a, b *cosma.Matrix) *cosma.Matrix {
	t.Helper()
	eng, err := cosma.NewEngine(cosma.WithProcs(4), cosma.WithMemory(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := eng.Exec(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// batchGate parks every batch at Server.gate until released, so a test
// can hold requests in flight without depending on timing.
type batchGate struct {
	entered chan struct{} // receives once per batch parked at the gate
	release chan struct{} // closed to let every batch through
}

func holdBatches(s *Server) *batchGate {
	g := &batchGate{entered: make(chan struct{}), release: make(chan struct{})}
	s.gate = func() {
		select {
		case g.entered <- struct{}{}:
			<-g.release
		case <-g.release:
		}
	}
	return g
}

// waitFor polls until cond holds. The states it waits for (a request
// admitted behind a held batch, a drain begun) signal nothing a test
// could block on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d queued requests", n), func() bool { return s.Stats().Queued == n })
}

// TestMultiplyCorrectAndBatched checks group commit exactly: the first
// request into an idle bucket flushes alone and is held at the gate,
// n same-shape requests queue behind it, and on release they go out
// in ⌈n/MaxBatch⌉ batches — every product bitwise-correct.
func TestMultiplyCorrectAndBatched(t *testing.T) {
	for _, tc := range []struct {
		name        string
		maxBatch    int // Options.MaxBatch; 0 means the default 32
		n           int // requests queued behind the held first batch
		wantAfter   int64
		wantLargest int
	}{
		{name: "one batch", n: 12, wantAfter: 1, wantLargest: 12},
		{name: "beyond MaxBatch", maxBatch: 4, n: 10, wantAfter: 3, wantLargest: 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, Options{MaxBatch: tc.maxBatch})
			gate := holdBatches(s)
			ctx := context.Background()

			reqs := tc.n + 1
			as := make([]*cosma.Matrix, reqs)
			bs := make([]*cosma.Matrix, reqs)
			wants := make([]*cosma.Matrix, reqs)
			for i := range as {
				as[i] = cosma.RandomMatrix(48, 32, int64(i+1))
				bs[i] = cosma.RandomMatrix(32, 24, int64(i+100))
				wants[i] = reference(t, as[i], bs[i])
			}
			var wg sync.WaitGroup
			errs := make([]error, reqs)
			send := func(i int) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c, rep, err := s.Multiply(ctx, as[i], bs[i])
					if err != nil {
						errs[i] = err
						return
					}
					if rep == nil {
						errs[i] = errors.New("nil report")
						return
					}
					for j := range wants[i].Data {
						if c.Data[j] != wants[i].Data[j] {
							errs[i] = fmt.Errorf("word %d: got %v want %v", j, c.Data[j], wants[i].Data[j])
							return
						}
					}
				}()
			}
			send(0)
			<-gate.entered
			for i := 1; i < reqs; i++ {
				send(i)
			}
			waitQueued(t, s, reqs)
			close(gate.release)
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}

			st := s.Stats()
			if st.Requests != int64(reqs) {
				t.Fatalf("requests = %d, want %d", st.Requests, reqs)
			}
			if st.Batches != 1+tc.wantAfter {
				t.Fatalf("batches = %d, want 1 held + %d", st.Batches, tc.wantAfter)
			}
			if st.MaxBatch != tc.wantLargest {
				t.Fatalf("largest batch = %d, want %d", st.MaxBatch, tc.wantLargest)
			}
			if st.Batched != int64(reqs) {
				t.Fatalf("batched pairs = %d, want %d", st.Batched, reqs)
			}
			if st.Queued != 0 {
				t.Fatalf("queued = %d after all requests answered", st.Queued)
			}
		})
	}
}

func TestShedsBeyondQueueLimit(t *testing.T) {
	s := newTestServer(t, Options{QueueLimit: 2})
	gate := holdBatches(s)
	ctx := context.Background()
	a := cosma.RandomMatrix(16, 16, 1)
	b := cosma.RandomMatrix(16, 16, 2)

	// Two requests fill the queue: the first is held at the gate, the
	// second waits behind it, so the third is shed.
	var wg sync.WaitGroup
	send := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Multiply(ctx, a, b); err != nil {
				t.Error(err)
			}
		}()
	}
	send()
	<-gate.entered
	send()
	waitQueued(t, s, 2)
	if _, _, err := s.Multiply(ctx, a, b); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	close(gate.release)
	wg.Wait()
	st := s.Stats()
	if st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
	if st.ShedByShape["16×16×16"] != 1 {
		t.Fatalf("shed-by-shape = %v, want 16×16×16: 1", st.ShedByShape)
	}
}

func TestDrain(t *testing.T) {
	s := newTestServer(t, Options{})
	gate := holdBatches(s)
	ctx := context.Background()
	a := cosma.RandomMatrix(32, 32, 1)
	b := cosma.RandomMatrix(32, 32, 2)

	done := make(chan error, 1)
	go func() {
		_, _, err := s.Multiply(ctx, a, b)
		done <- err
	}()
	<-gate.entered // admitted and held in flight

	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(drainCtx) }()
	waitFor(t, "drain to begin", func() bool { return s.Stats().Draining })
	if _, _, err := s.Multiply(ctx, a, b); !errors.Is(err, ErrDraining) {
		t.Fatalf("got %v, want ErrDraining", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) with a request in flight", err)
	default:
	}

	close(gate.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
}

// TestCancelledContextNotAdmitted proves a request whose context is
// already done — a client gone while its body was decoded — takes no
// queue slot and runs nothing.
func TestCancelledContextNotAdmitted(t *testing.T) {
	s := newTestServer(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := cosma.RandomMatrix(16, 16, 1)
	b := cosma.RandomMatrix(16, 16, 2)
	if _, _, err := s.Multiply(ctx, a, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if st := s.Stats(); st.Requests != 0 || st.Batches != 0 {
		t.Fatalf("cancelled request admitted: %d requests, %d batches", st.Requests, st.Batches)
	}
}

func TestRejectsOversized(t *testing.T) {
	s := newTestServer(t, Options{MaxDim: 64})
	a := cosma.RandomMatrix(65, 16, 1)
	b := cosma.RandomMatrix(16, 16, 2)
	_, _, err := s.Multiply(context.Background(), a, b)
	if err == nil {
		t.Fatal("oversized request accepted")
	}
	if status := statusFor(err); status != http.StatusBadRequest {
		t.Fatalf("oversized request answers %d, want 400", status)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
}

func TestShardingSpreadsShapes(t *testing.T) {
	s := newTestServer(t, Options{Shards: 4})
	seen := map[int]bool{}
	for m := 1; m <= 64; m++ {
		seen[shapeKey{m, m, m}.shard(s.Engines())] = true
	}
	if len(seen) != 4 {
		t.Fatalf("64 shapes hit only %d of 4 shards", len(seen))
	}
}

func TestHTTPMultiplyAndStats(t *testing.T) {
	s := newTestServer(t, Options{})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	a := cosma.RandomMatrix(24, 16, 1)
	b := cosma.RandomMatrix(16, 8, 2)
	body, _ := json.Marshal(MultiplyRequest{M: 24, N: 8, K: 16, A: a.Data, B: b.Data})
	resp, err := http.Post(srv.URL+"/v1/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out MultiplyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.M != 24 || out.N != 8 || len(out.C) != 24*8 {
		t.Fatalf("bad response shape %d×%d (%d words)", out.M, out.N, len(out.C))
	}
	want := reference(t, a, b)
	for i := range want.Data {
		if out.C[i] != want.Data[i] {
			t.Fatalf("word %d: got %v want %v", i, out.C[i], want.Data[i])
		}
	}

	// Malformed body → 400.
	resp2, err := http.Post(srv.URL+"/v1/multiply", "application/json", bytes.NewReader([]byte(`{"m":2,"n":2,"k":2,"a":[1],"b":[1,2,3,4]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("short A: status %d, want 400", resp2.StatusCode)
	}

	var st Stats
	resp3, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if err := json.NewDecoder(resp3.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want 1 request and 1 rejection", st)
	}

	if resp4, err := http.Get(srv.URL + "/healthz"); err != nil || resp4.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp4.StatusCode, err)
	}
}

func TestHTTPDrainingStatus(t *testing.T) {
	s := newTestServer(t, Options{})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(MultiplyRequest{M: 2, N: 2, K: 2, A: []float64{1, 2, 3, 4}, B: []float64{1, 2, 3, 4}})
	resp, err := http.Post(srv.URL+"/v1/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 while draining", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 carries no Retry-After header")
	}
	if hz, err := http.Get(srv.URL + "/healthz"); err != nil || hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %v %v", hz.StatusCode, err)
	}
}

// TestHTTPDeadlineHeader proves the X-Cosma-Deadline-Ms budget
// propagates: a budget that expires while the request's batch is held
// maps to 504; a malformed value is a 400.
func TestHTTPDeadlineHeader(t *testing.T) {
	s := newTestServer(t, Options{})
	gate := holdBatches(s)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	post := func(deadline string) int {
		t.Helper()
		body, _ := json.Marshal(MultiplyRequest{M: 2, N: 2, K: 2, A: []float64{1, 2, 3, 4}, B: []float64{1, 2, 3, 4}})
		req, err := http.NewRequest("POST", srv.URL+"/v1/multiply", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if deadline != "" {
			req.Header.Set(DeadlineHeader, deadline)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if status := post("20"); status != http.StatusGatewayTimeout {
		t.Fatalf("20ms budget against a held batch: status %d, want 504", status)
	}
	if status := post("not-a-number"); status != http.StatusBadRequest {
		t.Fatalf("malformed deadline: status %d, want 400", status)
	}
	close(gate.release)
	if status := post("30000"); status != http.StatusOK {
		t.Fatalf("generous budget: status %d, want 200", status)
	}
}

// TestHTTPEngineFailureIs500 proves an execution the engine fails — a
// rank killed on every attempt, so retries cannot save it — answers
// 500, not the 400 that tells a client its request was malformed.
func TestHTTPEngineFailureIs500(t *testing.T) {
	s := newTestServer(t, Options{
		Engine: []cosma.Option{
			cosma.WithProcs(4), cosma.WithMemory(1 << 14),
			cosma.WithFaultPlan(cosma.FaultPlan{Deaths: []cosma.RankDeath{{Rank: 1, Round: 0}}}),
			cosma.WithRetry(cosma.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond}),
		},
		Shards: 1,
	})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	a := cosma.RandomMatrix(16, 16, 1)
	b := cosma.RandomMatrix(16, 16, 2)
	body, _ := json.Marshal(MultiplyRequest{M: 16, N: 16, K: 16, A: a.Data, B: b.Data})
	resp, err := http.Post(srv.URL+"/v1/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("error body %+v (%v), want a message", e, err)
	}
	if st := s.Stats(); st.BatchFailures != 1 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want 1 batch failure and no rejection", st)
	}
}
