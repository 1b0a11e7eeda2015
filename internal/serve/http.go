package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"cosma"
)

// MultiplyRequest is the JSON body of POST /v1/multiply: row-major
// float64 payloads for A (m×k) and B (k×n).
type MultiplyRequest struct {
	M int       `json:"m"`
	N int       `json:"n"`
	K int       `json:"k"`
	A []float64 `json:"a"`
	B []float64 `json:"b"`
}

// MultiplyResponse is the JSON answer: the row-major m×n product plus
// the execution report's headline numbers.
type MultiplyResponse struct {
	M         int       `json:"m"`
	N         int       `json:"n"`
	C         []float64 `json:"c"`
	Algorithm string    `json:"algorithm"`
	Grid      string    `json:"grid"`
	MaxRecv   int64     `json:"max_recv_words"`
}

// errorResponse is the JSON body of every non-200 answer.
type errorResponse struct {
	Error string `json:"error"`
}

// DeadlineHeader carries a request's remaining time budget in whole
// milliseconds. When present and positive, the serving context gets
// that deadline, and it propagates into the batched execution: a batch
// whose members all carry deadlines is cancelled once the last one
// expires instead of riding out an engine-side hang. Expiry maps to
// 504.
const DeadlineHeader = "X-Cosma-Deadline-Ms"

// Handler returns the server's HTTP API:
//
//	POST /v1/multiply — multiply one pair (MultiplyRequest → MultiplyResponse);
//	                    429 when shedding, 503 while draining or a shard's
//	                    circuit is open (both with Retry-After), 504 when
//	                    the X-Cosma-Deadline-Ms budget expires, 400 on bad
//	                    input (trailing data, a null element, or a product
//	                    that overflows float64 included), 500 when the
//	                    engine fails
//	GET  /v1/stats    — the Stats snapshot as JSON
//	GET  /healthz     — 200 "ok" while accepting, 503 while draining
//
// The multiply payloads bypass encoding/json's reflection (codec.go):
// a canonical body is scanned directly and any other falls back to
// json.Unmarshal, so bodies are accepted or refused, and values
// parsed, exactly as encoding/json would; the response is the bytes
// json.Encoder would write.
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/multiply", func(w http.ResponseWriter, r *http.Request) {
		req, err := readRequest(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, s.reject(err))
			return
		}
		a, b, err := req.matrices()
		if err != nil {
			httpError(w, http.StatusBadRequest, s.reject(err))
			return
		}
		ctx := r.Context()
		if h := r.Header.Get(DeadlineHeader); h != "" {
			ms, err := strconv.Atoi(h)
			if err != nil || ms <= 0 {
				httpError(w, http.StatusBadRequest, s.reject(fmt.Errorf("serve: bad %s %q", DeadlineHeader, h)))
				return
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
			defer cancel()
		}
		c, rep, err := s.Multiply(ctx, a, b)
		if err != nil {
			status := statusFor(err)
			if d := s.retryAfter(err); d > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(int((d+time.Second-1)/time.Second)))
			}
			httpError(w, status, err)
			return
		}
		p := getBuf()
		defer putBuf(p)
		*p, err = appendResponse(*p, MultiplyResponse{
			M: c.Rows, N: c.Cols, C: c.Data,
			Algorithm: rep.Name, Grid: rep.Grid, MaxRecv: rep.MaxRecv,
		})
		if err != nil {
			httpError(w, http.StatusBadRequest, s.reject(err))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(*p)))
		w.Write(*p)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Stats().Draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (req *MultiplyRequest) matrices() (a, b *cosma.Matrix, err error) {
	if req.M < 1 || req.N < 1 || req.K < 1 {
		return nil, nil, fmt.Errorf("serve: invalid dimensions %d×%d×%d", req.M, req.N, req.K)
	}
	if len(req.A) != req.M*req.K {
		return nil, nil, fmt.Errorf("serve: A has %d words, want m·k = %d", len(req.A), req.M*req.K)
	}
	if len(req.B) != req.K*req.N {
		return nil, nil, fmt.Errorf("serve: B has %d words, want k·n = %d", len(req.B), req.K*req.N)
	}
	return cosma.MatrixFromSlice(req.M, req.K, req.A), cosma.MatrixFromSlice(req.K, req.N, req.B), nil
}

// statusFor maps service errors onto HTTP statuses: shedding is 429
// (retryable shortly, once batches ahead of it finish), draining and
// an open circuit are 503 (retry another replica, or after the
// cooldown), an expired deadline budget is 504, a request rejected for
// its own input is 400, and any other failure — the engine's, such as
// a rank death that outlived its retries or a receive timeout — is
// 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrShardOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.As(err, new(rejected)):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// retryAfter suggests when a rejected request is worth re-sending: a
// nominal second after shedding (the queue drains as fast as batches
// execute) or while draining (really: go elsewhere), and one breaker
// cooldown after tripping a circuit. 0 means no header.
func (s *Server) retryAfter(err error) time.Duration {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrDraining):
		return time.Second
	case errors.Is(err, ErrShardOpen):
		return s.opts.breakerCooldown()
	default:
		return 0
	}
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
