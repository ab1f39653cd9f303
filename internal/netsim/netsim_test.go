package netsim

import (
	"math"
	"testing"

	"smistudy/internal/sim"
)

func fabric(t *testing.T, nodes int) (*sim.Engine, *Fabric) {
	t.Helper()
	e := sim.New(1)
	f, err := New(e, nodes, Params{
		Latency: 50 * sim.Microsecond, BytesPerSec: 100e6,
		IntraLatency: sim.Microsecond, IntraBytesPerSec: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, f
}

func TestSmallMessageLatency(t *testing.T) {
	e, f := fabric(t, 2)
	var at sim.Time
	f.Deliver(0, 1, 0, func() { at = e.Now() })
	e.Run()
	if at != 50*sim.Microsecond {
		t.Fatalf("zero-byte delivery at %v, want 50µs", at)
	}
}

func TestBandwidthDominatesLargeMessages(t *testing.T) {
	e, f := fabric(t, 2)
	var at sim.Time
	f.Deliver(0, 1, 100_000_000, func() { at = e.Now() }) // 100 MB at 100 MB/s
	e.Run()
	if math.Abs(at.Seconds()-1.00005) > 1e-4 {
		t.Fatalf("100MB delivery at %v, want ~1s", at)
	}
}

func TestEgressSerialization(t *testing.T) {
	e, f := fabric(t, 3)
	var first, second sim.Time
	// Two 10MB messages from node 0 to different destinations must
	// serialize on node 0's egress link: 0.1s each.
	f.Deliver(0, 1, 10_000_000, func() { first = e.Now() })
	f.Deliver(0, 2, 10_000_000, func() { second = e.Now() })
	e.Run()
	if math.Abs(first.Seconds()-0.10005) > 1e-3 {
		t.Fatalf("first delivery at %v", first)
	}
	if math.Abs(second.Seconds()-0.20005) > 1e-3 {
		t.Fatalf("second delivery at %v, want ~0.2s (egress serialized)", second)
	}
}

func TestIngressSerialization(t *testing.T) {
	e, f := fabric(t, 3)
	var a, b sim.Time
	// Two senders to one receiver: ingress link of node 2 serializes.
	f.Deliver(0, 2, 10_000_000, func() { a = e.Now() })
	f.Deliver(1, 2, 10_000_000, func() { b = e.Now() })
	e.Run()
	late := b
	if a > b {
		late = a
	}
	if math.Abs(late.Seconds()-0.2) > 1e-3 {
		t.Fatalf("latest ingress-serialized delivery at %v, want ~0.2s", late)
	}
}

func TestIntraNodeLoopback(t *testing.T) {
	e, f := fabric(t, 2)
	var at sim.Time
	f.Deliver(1, 1, 1_000_000, func() { at = e.Now() }) // 1MB at 1GB/s + 1µs
	e.Run()
	want := 0.001 + 1e-6
	if math.Abs(at.Seconds()-want) > 1e-6 {
		t.Fatalf("intra-node delivery at %v, want %.6fs", at, want)
	}
}

func TestIntraDoesNotConsumeNIC(t *testing.T) {
	e, f := fabric(t, 2)
	var netAt sim.Time
	f.Deliver(0, 0, 100_000_000, func() {}) // huge local copy
	f.Deliver(0, 1, 0, func() { netAt = e.Now() })
	e.Run()
	if netAt != 50*sim.Microsecond {
		t.Fatalf("network message delayed by local copy: %v", netAt)
	}
}

func TestStats(t *testing.T) {
	e, f := fabric(t, 2)
	f.Deliver(0, 1, 100, nil)
	f.Deliver(1, 0, 200, nil)
	e.Shutdown() // don't run nil fns
	st := f.Stats()
	if st.Messages != 2 || st.Bytes != 300 {
		t.Fatalf("stats = (%d,%d), want (2,300)", st.Messages, st.Bytes)
	}
	if l := f.Link(0, 1); l.Messages != 1 || l.Bytes != 100 {
		t.Fatalf("link 0->1 = %+v, want 1 message of 100 bytes", l)
	}
}

func TestValidation(t *testing.T) {
	e := sim.New(1)
	if _, err := New(e, 0, GigabitEthernet()); err == nil {
		t.Error("0 nodes accepted")
	}
	if _, err := New(e, 2, Params{Latency: -1, BytesPerSec: 1, IntraBytesPerSec: 1}); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := New(e, 2, Params{BytesPerSec: 0, IntraBytesPerSec: 1}); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if err := GigabitEthernet().Validate(); err != nil {
		t.Errorf("GigabitEthernet invalid: %v", err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	e, f := fabric(t, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range node did not panic")
		}
	}()
	f.Deliver(0, 5, 10, nil)
	e.Run()
}

func TestDeliverReturnsArrivalTime(t *testing.T) {
	e, f := fabric(t, 2)
	var got sim.Time
	at := f.Deliver(0, 1, 1000, func() { got = e.Now() })
	e.Run()
	if got != at {
		t.Fatalf("returned %v but delivered at %v", at, got)
	}
}
