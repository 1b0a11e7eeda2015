package main

import (
	"time"

	"cosma/internal/machine"
)

// rankTimes is one rank's wall-clock time inside the transport and its
// own count of the traffic, kept apart from the transport's counters so
// the two can be checked against each other.
type rankTimes struct {
	send, wait         time.Duration
	sentMsgs, recvMsgs int64
	recvWords          int64
	_                  [64]byte // ranks update concurrently: one cache line each
}

// timingTransport decorates a machine.Transport with per-rank
// wall-clock sums: time spent posting sends and time spent blocked in
// Recv or Request.Wait. Each rank touches only its own entry, as the
// counting transport does with its counters, so no lock is needed.
// Times are summed per rank, not recorded as one span per message.
type timingTransport struct {
	machine.Transport
	ranks []rankTimes
}

func newTimingTransport(inner machine.Transport) *timingTransport {
	return &timingTransport{Transport: inner, ranks: make([]rankTimes, inner.P())}
}

// Reset starts a new run: the machine calls it before every execution.
func (t *timingTransport) Reset() {
	t.Transport.Reset()
	clear(t.ranks)
}

func (t *timingTransport) sent(src, dst int, begin time.Time) {
	rt := &t.ranks[src]
	rt.send += time.Since(begin)
	if src != dst {
		rt.sentMsgs++
	}
}

func (t *timingTransport) received(dst, src int, data []float64) {
	if src != dst {
		rt := &t.ranks[dst]
		rt.recvMsgs++
		rt.recvWords += int64(len(data))
	}
}

func (t *timingTransport) Send(src, dst, tag int, data []float64, owned bool) {
	begin := time.Now()
	t.Transport.Send(src, dst, tag, data, owned)
	t.sent(src, dst, begin)
}

func (t *timingTransport) SendAt(src, dst, tag int, data []float64, owned bool, at float64) {
	begin := time.Now()
	t.Transport.SendAt(src, dst, tag, data, owned, at)
	t.sent(src, dst, begin)
}

func (t *timingTransport) ISend(src, dst, tag int, data []float64, owned bool) machine.Request {
	begin := time.Now()
	req := t.Transport.ISend(src, dst, tag, data, owned)
	t.sent(src, dst, begin)
	return &timedRequest{t: t, req: req, rank: src, send: true}
}

func (t *timingTransport) Recv(dst, src, tag int) []float64 {
	begin := time.Now()
	data := t.Transport.Recv(dst, src, tag)
	t.ranks[dst].wait += time.Since(begin)
	t.received(dst, src, data)
	return data
}

func (t *timingTransport) IRecv(dst, src, tag int) machine.Request {
	return &timedRequest{t: t, req: t.Transport.IRecv(dst, src, tag), rank: dst, peer: src}
}

// timedRequest charges the time its owner spends in Wait and Test to
// the owner's send or receive-wait sum, and counts a receive once, when
// it first completes.
type timedRequest struct {
	t    *timingTransport
	req  machine.Request
	rank int
	peer int
	send bool
	done bool
}

func (r *timedRequest) Wait() []float64 {
	begin := time.Now()
	data := r.req.Wait()
	r.charge(begin, data, true)
	return data
}

func (r *timedRequest) Test() ([]float64, bool) {
	begin := time.Now()
	data, ok := r.req.Test()
	r.charge(begin, data, ok)
	return data, ok
}

func (r *timedRequest) At() float64 { return r.req.At() }

func (r *timedRequest) charge(begin time.Time, data []float64, completed bool) {
	rt := &r.t.ranks[r.rank]
	if r.send {
		rt.send += time.Since(begin)
		return
	}
	rt.wait += time.Since(begin)
	if completed && !r.done {
		r.done = true
		r.t.received(r.rank, r.peer, data)
	}
}

// machineSample summarizes the last run on a timing transport.
type machineSample struct {
	waitMax, waitSum, sendSum time.Duration
	wordsMax, msgsMax         int64
}

func (t *timingTransport) sample() machineSample {
	var s machineSample
	for _, rt := range t.ranks {
		s.waitMax = max(s.waitMax, rt.wait)
		s.waitSum += rt.wait
		s.sendSum += rt.send
		s.wordsMax = max(s.wordsMax, rt.recvWords)
		s.msgsMax = max(s.msgsMax, rt.sentMsgs+rt.recvMsgs)
	}
	return s
}
