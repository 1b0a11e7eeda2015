package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"cosma"
	"cosma/internal/serve"
	"cosma/internal/workload"
)

// catalogSeed draws serve-mixed's shape catalog. The catalog is part of
// the workload's definition, like exec-square's 1024³, so runs with
// different seeds measure the same shapes; the run's seed draws the
// request sequence and the payloads.
const catalogSeed = 1

// serveClients is the closed loop's client count: one per core of the
// 2-core reference box, with one load-generating process.
const serveClients = 2

// serveSetups is how many times a run sets the service up.
const serveSetups = 9

// payload is one request: a shape's inputs, their JSON body and the
// reference product.
type payload struct {
	shape      int
	a, b, want *cosma.Matrix
	body       []byte
}

// mix is serve-mixed's inputs: the shape catalog with its Zipf shares,
// payload variants per shape, and the seeded request sequence. Its
// traffic metrics are the catalog's largest Report counts.
type mix struct {
	shapes   []shape
	payloads [][]payload // [shape][variant]
	stream   []*payload
}

// newMix draws the inputs and computes each payload's reference on eng.
func (r *run) newMix(eng *cosma.Engine) (*mix, error) {
	nShapes, lo, hi, variants := 16, 16, 96, 4
	if r.cfg.tiny {
		nShapes, lo, hi, variants = 4, 8, 16, 2
	}
	cat := workload.NewGenerator(workload.GenConfig{Seed: catalogSeed, Shapes: nShapes, MinDim: lo, MaxDim: hi}).Catalog()
	zipf := workload.NewZipf(nShapes, 1.1) // the generator's default exponent
	rng := workload.NewRNG(r.cfg.seed)
	mx := &mix{payloads: make([][]payload, nShapes)}
	ctx := context.Background()
	for i, d := range cat {
		mx.shapes = append(mx.shapes, shape{m: d.M, n: d.N, k: d.K})
		for range variants {
			a := cosma.RandomMatrix(d.M, d.K, int64(rng.Uint64()>>1))
			b := cosma.RandomMatrix(d.K, d.N, int64(rng.Uint64()>>1))
			c, rep, err := eng.Exec(ctx, a, b)
			if err != nil {
				return nil, fmt.Errorf("reference for %v: %w", d, err)
			}
			r.op(cosma.VerifyProduct(a, b, c))
			r.words = max(r.words, rep.MaxRecv)
			r.msgs = max(r.msgs, rep.MaxMsgs)
			body, err := json.Marshal(serve.MultiplyRequest{M: d.M, N: d.N, K: d.K, A: a.Data, B: b.Data})
			if err != nil {
				return nil, err
			}
			mx.payloads[i] = append(mx.payloads[i], payload{shape: i, a: a, b: b, want: c, body: body})
		}
	}
	// The request sequence holds each shape in proportion to its Zipf
	// share, in an order the seed shuffles, so every seed runs the same
	// mix; a sampled mix would move the median between seeds.
	for i := range mx.shapes {
		n := max(1, int(math.Round(zipf.P(i)*4096)))
		for range n {
			mx.stream = append(mx.stream, &mx.payloads[i][rng.Intn(variants)])
		}
	}
	for i := len(mx.stream) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		mx.stream[i], mx.stream[j] = mx.stream[j], mx.stream[i]
	}
	for _, p := range mx.stream {
		mx.shapes[p.shape].weight += 1 / float64(len(mx.stream))
	}
	return mx, nil
}

// service is one cosmad stack: the server behind its HTTP handler on a
// loopback listener, and a keep-alive client.
type service struct {
	srv    *serve.Server
	http   *httptest.Server
	client *http.Client
}

// newService builds the stack with cosmad's defaults (4 shards, 2 ms
// window, queue 256) over engines configured as cosmad configures them.
func newService(spec engineSpec) (*service, error) {
	srv, err := serve.New(serve.Options{Engine: spec.options()})
	if err != nil {
		return nil, err
	}
	return &service{
		srv:  srv,
		http: httptest.NewServer(serve.Handler(srv)),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			DisableCompression:  true,
		}},
	}, nil
}

func (s *service) close() {
	s.http.Close()
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Drain(ctx)
}

// post sends one request and times it until the whole response body
// has been read; decoding and checking it is left to checkResponse.
func (s *service) post(body []byte) (time.Duration, int, []byte, error) {
	begin := time.Now()
	resp, err := s.client.Post(s.http.URL+"/v1/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		return time.Since(begin), 0, nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	d := time.Since(begin)
	resp.Body.Close()
	return d, resp.StatusCode, raw, err
}

// decodeResponse decodes a response's product. Any status but 200,
// 429 included, is a failure.
func decodeResponse(status int, raw []byte) (*cosma.Matrix, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(raw))
	}
	var resp serve.MultiplyResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	if len(resp.C) != resp.M*resp.N {
		return nil, fmt.Errorf("response is %d×%d with %d words", resp.M, resp.N, len(resp.C))
	}
	return cosma.MatrixFromSlice(resp.M, resp.N, resp.C), nil
}

// checkResponse compares a response's product with the reference bit
// for bit.
func (r *run) checkResponse(status int, raw []byte, want *cosma.Matrix) error {
	c, err := decodeResponse(status, raw)
	if err != nil {
		return err
	}
	r.tamper(c)
	return sameProduct(c, want)
}

func runServeMixed(r *run) error {
	spec := engineSpec{p: 4, s: 1 << 20} // cosmad's -p and -S defaults
	direct, err := cosma.NewEngine(spec.options()...)
	if err != nil {
		return err
	}
	defer direct.Close()
	mx, err := r.newMix(direct)
	if err != nil {
		return err
	}

	// Set-up: server construction until the first request of every
	// shape has been answered, repeated and reported as the median.
	var setup samples
	var svc *service
	for range serveSetups {
		if svc != nil {
			svc.close()
		}
		begin := time.Now()
		svc, err = newService(spec)
		if err != nil {
			return err
		}
		for i := range mx.shapes {
			p := &mx.payloads[i][0]
			_, status, raw, err := svc.post(p.body)
			if err == nil {
				err = r.checkResponse(status, raw, p.want)
			}
			r.op(err)
		}
		setup.add(time.Since(begin))
	}
	defer svc.close()
	r.set("setup_s", setup.median()/1e3)
	r.note("setup_s: median of %d set-ups, ms %s", serveSetups, setup.describe())

	var next atomic.Int64
	var flops atomic.Int64 // of the correct responses
	nextPayload := func() *payload { return mx.stream[int(next.Add(1)-1)%len(mx.stream)] }
	served := func(int) (time.Duration, error) {
		p := nextPayload()
		d, status, raw, err := svc.post(p.body)
		if err == nil {
			err = r.checkResponse(status, raw, p.want)
		}
		if err == nil {
			flops.Add(int64(mx.shapes[p.shape].flops()))
		}
		return d, err
	}

	budget, minOps := r.cfg.budget(1), tailOps(950)/serveClients
	if r.cfg.trace {
		budget, minOps = r.cfg.budget(0.5), 3
	}
	before := svc.srv.Stats()
	srvSt := r.closedLoop(budget, serveClients, minOps, served)
	after := svc.srv.Stats()
	gflops := float64(flops.Load()) / srvSt.wall.Seconds() / 1e9
	r.note("HTTP request ms: %s", srvSt.lat.describe())

	if !r.cfg.trace {
		// The workload's operation is the request, so exec_* read the
		// same samples as serve_*; Engine.Exec alone on these shapes is
		// the traced run's cosma.exec_ms_p50.
		p50 := srvSt.lat.median()
		tail, _ := srvSt.lat.tail()
		for _, name := range []string{"serve_ms", "exec_ms"} {
			r.set(name+"_p50", p50)
			r.set(name+"_tail", tail)
		}
		r.set("serve_rps", float64(srvSt.ok)/srvSt.wall.Seconds())
		r.set("gflops", gflops)
		r.set("alloc_mb_per_op", float64(srvSt.allocBytes)/float64(max(1, srvSt.ops))/1e6)
		r.set("comm_words_max", float64(r.words))
		r.set("comm_msgs_max", float64(r.msgs))
		return nil
	}

	batches := after.Batches - before.Batches
	r.set("serve.batch_mean", float64(after.Batched-before.Batched)/float64(max(1, batches)))
	r.set("serve.shed_ratio", float64(after.Shed-before.Shed)/float64(max(1, after.Requests-before.Requests+after.Shed-before.Shed)))

	// Traced phase: per request, the HTTP round trip, the handler on an
	// in-memory recorder, Server.Multiply on the decoded matrices, and
	// Engine.Exec and the algo executor on the same inputs.
	ctx := context.Background()
	handler := serve.Handler(svc.srv)
	tes := make([][]*tracedExec, serveClients)
	for c := range tes {
		for i, sh := range mx.shapes {
			te, err := newTracedExec(spec, sh)
			if err != nil {
				return err
			}
			p := &mx.payloads[i][0]
			if _, _, err := te.exec.Exec(ctx, p.a, p.b); err != nil {
				return err
			}
			tes[c] = append(tes[c], te)
		}
	}
	next.Store(0)
	traced := r.closedLoop(r.cfg.budget(0.5), serveClients, 3, func(c int) (time.Duration, error) {
		p := nextPayload()
		op := r.tr.begin(nil, c, "op:"+r.cfg.workload)
		defer r.tr.end(op, nil)

		s := r.tr.begin(op, c, "serve.http")
		_, status, raw, err := svc.post(p.body)
		d := r.tr.end(s, nil)
		if err == nil {
			err = r.checkResponse(status, raw, p.want)
		}
		if err != nil {
			return d, err
		}

		req := httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(p.body))
		rec := httptest.NewRecorder()
		s = r.tr.begin(op, c, "serve.Handler.ServeHTTP")
		handler.ServeHTTP(rec, req)
		r.tr.end(s, nil)
		if err := r.checkResponse(rec.Code, rec.Body.Bytes(), p.want); err != nil {
			return d, err
		}

		s = r.tr.begin(op, c, "serve.Server.Multiply")
		prod, _, err := svc.srv.Multiply(ctx, p.a, p.b)
		r.tr.end(s, nil)
		if err == nil {
			err = sameProduct(prod, p.want)
		}
		if err != nil {
			return d, err
		}
		_, err = r.traceEngineOp(op, direct, tes[c][p.shape], p.a, p.b, p.want)
		return d, err
	})
	r.set("trace.overhead_ratio", traced.lat.median()/srvSt.lat.median())
	r.set("serve.http_self_ms", r.tr.selfTimes("serve.http", "serve.Handler.ServeHTTP").median())
	r.set("serve.codec_ms", r.tr.selfTimes("serve.Handler.ServeHTTP", "serve.Server.Multiply").median())
	r.set("serve.wait_ms", r.tr.selfTimes("serve.Server.Multiply", "cosma.Engine.Exec").median())
	r.set("cosma.exec_ms_p50", r.tr.durations("cosma.Engine.Exec").median())
	st := svc.srv.Stats()
	r.set("cosma.plan_hit_ratio", float64(st.PlanHits)/float64(st.PlanHits+st.PlanMisses))
	r.machineLayer()

	probes := make([]shapeProbe, len(mx.shapes))
	measured := make([]float64, len(mx.shapes))
	for i, sh := range mx.shapes {
		p := &mx.payloads[i][0]
		if probes[i], err = r.probeShape(spec, sh, p.a, p.b, p.want); err != nil {
			return err
		}
		measured[i] = probes[i].warmMs
	}
	r.engineLayer(mx.shapes, probes, measured, gflops)
	r.zeroLayers("wire.over_inprocess")
	return nil
}
