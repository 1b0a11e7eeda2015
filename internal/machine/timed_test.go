package machine

import (
	"math"
	"testing"
)

// testNet returns round numbers so expected clocks are exact.
func testNet() NetworkParams {
	return NetworkParams{Name: "test", Alpha: 1, Beta: 0.1, Gamma: 0.001}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestTimedPingClocks(t *testing.T) {
	m := NewTimed(2, testNet())
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 7, make([]float64, 10))
		} else {
			r.Recv(0, 7)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sender: α = 1. Receiver: max(0, departure=1) + β·10 = 1 + 1 = 2.
	times := m.Times()
	if !almost(times[0], 1) || !almost(times[1], 2) {
		t.Fatalf("clocks = %v, want [1 2]", times)
	}
	if !almost(m.MaxTime(), 2) {
		t.Fatalf("MaxTime = %v", m.MaxTime())
	}
}

func TestTimedReceiverSerializesBandwidth(t *testing.T) {
	// Two senders inject concurrently; the receiver's ingress port must
	// serialize the β terms even though the messages overlap in flight.
	m := NewTimed(3, testNet())
	err := m.Run(func(r *Rank) error {
		switch r.ID() {
		case 0, 1:
			r.Send(2, 1, make([]float64, 20))
		case 2:
			r.Recv(0, 1)
			r.Recv(1, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both departures at α = 1; receiver: max(0,1)+2 = 3, then max(3,1)+2 = 5.
	if got := m.Times()[2]; !almost(got, 5) {
		t.Fatalf("receiver clock = %v, want 5", got)
	}
}

func TestTimedComputeAdvancesClock(t *testing.T) {
	m := NewTimed(1, testNet())
	err := m.Run(func(r *Rank) error {
		r.Compute(5000)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Times()[0]; !almost(got, 5) { // γ·flops = 0.001·5000
		t.Fatalf("clock = %v, want 5", got)
	}
	if got := m.Counters(0).Flops; got != 5000 {
		t.Fatalf("Flops counter = %d", got)
	}
}

func TestTimedSelfTrafficFree(t *testing.T) {
	m := NewTimed(1, testNet())
	err := m.Run(func(r *Rank) error {
		r.Send(0, 1, []float64{1, 2, 3})
		r.Recv(0, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Times()[0]; got != 0 {
		t.Fatalf("self traffic advanced clock to %v", got)
	}
}

func TestTimedBarrierMaxPropagates(t *testing.T) {
	m := NewTimed(4, testNet())
	err := m.Run(func(r *Rank) error {
		r.Compute(int64(1000 * (r.ID() + 1))) // clocks 1, 2, 3, 4
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range m.Times() {
		if !almost(c, 4) {
			t.Fatalf("rank %d clock %v after barrier, want 4", id, c)
		}
	}
}

func TestTimedDependencyChainsThroughTree(t *testing.T) {
	// 0 → 1 → 2 relay: rank 2's clock must include both hops even though
	// rank 0 and rank 1 send "concurrently" in wall-clock terms.
	m := NewTimed(3, testNet())
	w := 10
	err := m.Run(func(r *Rank) error {
		switch r.ID() {
		case 0:
			r.Send(1, 1, make([]float64, w))
		case 1:
			buf := r.Recv(0, 1)
			r.SendOwned(2, 2, buf)
		case 2:
			r.Recv(1, 2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// hop 1: departs 1, rank1 at 2; send: rank1 at 3 (α), departs 3;
	// rank2: max(0,3) + 1 = 4.
	if got := m.Times()[2]; !almost(got, 4) {
		t.Fatalf("leaf clock = %v, want 4", got)
	}
}

func TestTimedClocksResetBetweenRuns(t *testing.T) {
	m := NewTimed(2, testNet())
	prog := func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 0, make([]float64, 10))
		} else {
			r.Recv(0, 0)
		}
		return nil
	}
	if err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	first := m.MaxTime()
	if err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	if got := m.MaxTime(); !almost(got, first) {
		t.Fatalf("clock accumulated across runs: %v then %v", first, got)
	}
}

func TestCountingMachineUntimed(t *testing.T) {
	m := New(2)
	if times := m.Times(); times != nil {
		t.Fatalf("counting machine has clocks %v", times)
	}
	if _, ok := m.Network(); ok {
		t.Fatal("counting machine claims a network")
	}
	if m.MaxTime() != 0 {
		t.Fatal("counting machine has nonzero MaxTime")
	}
}

func TestNetworkByName(t *testing.T) {
	for _, name := range []string{"pizdaint", "ethernet", "sharedmem"} {
		net, err := NetworkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if net.Name != name || net.Alpha <= 0 || net.Beta <= 0 || net.Gamma <= 0 {
			t.Fatalf("preset %q = %+v", name, net)
		}
	}
	if _, err := NetworkByName("infiniband"); err == nil {
		t.Fatal("unknown preset must error")
	}
}

// The paper's §8 testbed: the figure tables are priced at exactly these
// constants.
func TestPizDaintConstantsSane(t *testing.T) {
	if pd := PizDaintNet(); pd.Gamma != 1/36.8e9 || pd.Beta != 1/3.6e7 || pd.Alpha != 1.5e-6 || pd.Hier() {
		t.Fatalf("PizDaintNet() = %+v, want γ = 1/36.8e9, β = 1/3.6e7, α = 1.5e-6, flat", pd)
	}
}

func TestNetworkParamsTime(t *testing.T) {
	n := NetworkParams{Alpha: 2, Beta: 3, Gamma: 5}
	if got := n.Time(1, 10, 100); !almost(got, 5*1+3*10+2*100) {
		t.Fatalf("Time = %v", got)
	}
	// TimeOverlap hides the shorter phase behind the longer one (§7.3);
	// Time charges both serially.
	cases := []struct {
		name               string
		flops, words, msgs float64
		overlap            float64
	}{
		{"compute-bound", 100, 10, 1, 5 * 100},   // 500 s compute vs 32 s comms
		{"comm-bound", 1, 10, 100, 3*10 + 2*100}, // 5 s compute vs 230 s comms
		{"balanced", 46, 10, 100, 5 * 46},        // 230 s each way
	}
	for _, c := range cases {
		ov := n.TimeOverlap(c.flops, c.words, c.msgs)
		if !almost(ov, c.overlap) {
			t.Errorf("%s: TimeOverlap = %v, want %v", c.name, ov, c.overlap)
		}
		serial := n.Time(c.flops, c.words, c.msgs)
		if want := 5*c.flops + 3*c.words + 2*c.msgs; !almost(serial, want) {
			t.Errorf("%s: Time = %v, want the sum %v", c.name, serial, want)
		}
		if ov > serial {
			t.Errorf("%s: overlapped %v slower than serial %v", c.name, ov, serial)
		}
	}
}

// At 1 Gflop/s and 1e8 words/s, 2e9 flops and 1e8 words take 2 s of
// compute and 1 s of comms: overlapped the longer phase wins, serially
// they add.
func TestTimeOverlapVsSerial(t *testing.T) {
	n := NetworkParams{Alpha: 1e-6, Beta: 1e-8, Gamma: 1e-9}
	if got := n.TimeOverlap(2e9, 1e8, 0); !almost(got, 2) {
		t.Fatalf("overlap time = %v, want 2", got)
	}
	if got := n.Time(2e9, 1e8, 0); !almost(got, 3) {
		t.Fatalf("serial time = %v, want 3", got)
	}
}

func TestTimeLatencyTerm(t *testing.T) {
	n := NetworkParams{Alpha: 1e-3, Beta: 1e-8, Gamma: 1e-9}
	if got := n.Time(0, 0, 1000); !almost(got, 1) {
		t.Fatalf("latency-only time = %v, want 1", got)
	}
	if got := n.TimeOverlap(0, 0, 1000); !almost(got, 1) {
		t.Fatalf("latency-only overlapped time = %v, want 1", got)
	}
}

func TestNewWithNetwork(t *testing.T) {
	if _, ok := NewWithNetwork(2, nil).Network(); ok {
		t.Fatal("nil network must yield a counting machine")
	}
	net := testNet()
	got, ok := NewWithNetwork(2, &net).Network()
	if !ok || got.Name != "test" {
		t.Fatalf("Network() = %+v, %v", got, ok)
	}
}
