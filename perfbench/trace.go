package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer. The spans of
// one operation share Op; a layer call's Parent is its operation's
// span.
type span struct {
	ID     int64
	Parent int64
	Op     int64
	Thread int
	Name   string
	Begin  time.Time
	Dur    time.Duration
	Attrs  map[string]float64
}

// tracer keeps the spans of a traced run in memory; write dumps them
// when the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin starts a span on the client thread; parent is nil for an
// operation's root span, whose identifier becomes the operation's.
func (t *tracer) begin(parent *span, thread int, name string) *span {
	s := &span{ID: t.ids.Add(1), Thread: thread, Name: name}
	s.Op = s.ID
	if parent != nil {
		s.Parent, s.Op = parent.ID, parent.Op
	}
	s.Begin = time.Now()
	return s
}

// end closes s with optional attributes and returns its duration.
func (t *tracer) end(s *span, attrs map[string]float64) time.Duration {
	s.Dur = time.Since(s.Begin)
	s.Attrs = attrs
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
	return s.Dur
}

// named returns the recorded spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the spans called name, in ms.
func (t *tracer) durations(name string) samples {
	var out samples
	for _, s := range t.named(name) {
		out.add(s.Dur)
	}
	return out
}

// selfTimes returns, per operation holding both, the duration of the
// outer span minus that of the inner one — the self time of a layer
// whose call into the next layer cannot be seen from outside, measured
// as two calls on the same inputs.
func (t *tracer) selfTimes(outer, inner string) samples {
	in := make(map[int64]time.Duration)
	for _, s := range t.named(inner) {
		in[s.Op] = s.Dur
	}
	var out samples
	for _, s := range t.named(outer) {
		if d, ok := in[s.Op]; ok {
			out.add(s.Dur - d)
		}
	}
	return out
}

// write dumps the spans in the Chrome trace-event format, which
// chrome://tracing and ui.perfetto.dev open directly.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.ID, "op": s.Op, "parent": s.Parent}
		for k, v := range s.Attrs {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Cat: "perfbench", Ph: "X",
			Ts:  float64(s.Begin.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Thread, Args: args,
		})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
