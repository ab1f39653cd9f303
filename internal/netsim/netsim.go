// Package netsim models a cluster interconnect with per-node link
// serialization, suitable for gigabit-Ethernet-class fabrics like the one
// under the paper's Wyeast cluster.
//
// A message from node A to node B is serialized onto A's egress link
// (bandwidth-limited), travels one latency, and is serialized off B's
// ingress link. Messages between tasks on the same node bypass the NIC
// and use a memory-bandwidth fast path. The model is pipelined: the first
// byte arrives one latency after transmission starts, so big transfers
// overlap transmission and reception.
package netsim

import (
	"fmt"

	"smistudy/internal/obs"
	"smistudy/internal/sim"
)

// Params configures a fabric.
type Params struct {
	Latency          sim.Time // one-way wire+stack latency per message
	BytesPerSec      float64  // per-node link bandwidth
	IntraLatency     sim.Time // same-node message latency
	IntraBytesPerSec float64  // same-node copy bandwidth

	// CongestionBeta models TCP incast collapse on commodity Ethernet.
	// A message heading to a node that c *other source nodes*
	// are already transmitting toward is serialized (1 + CongestionBeta·c²)
	// times slower: a few concurrent flows cost little, but wide fan-in
	// overruns switch buffers and collapses goodput through
	// retransmission timeouts. Fitted to the paper's FT results
	// (~14× at 15 concurrent flows). Zero disables congestion. All-to-all traffic — the
	// reason FT scales so poorly on the paper's gigabit cluster — is
	// the main victim.
	CongestionBeta float64
}

// GigabitEthernet matches a 2010s GigE cluster fabric: ~45 µs end-to-end
// latency (kernel TCP stack) and ~117 MiB/s of goodput.
func GigabitEthernet() Params {
	return Params{
		Latency:          45 * sim.Microsecond,
		BytesPerSec:      117e6,
		IntraLatency:     1 * sim.Microsecond,
		IntraBytesPerSec: 3e9,
		CongestionBeta:   0.062,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Latency < 0 || p.IntraLatency < 0 {
		return fmt.Errorf("netsim: negative latency")
	}
	if p.BytesPerSec <= 0 || p.IntraBytesPerSec <= 0 {
		return fmt.Errorf("netsim: non-positive bandwidth")
	}
	if p.CongestionBeta < 0 {
		// A negative beta would make congested messages arrive faster
		// than their serialization allows.
		return fmt.Errorf("netsim: negative CongestionBeta %v", p.CongestionBeta)
	}
	return nil
}

// Verdict is a Perturber's decision about one message.
type Verdict struct {
	// Drop loses the message: it is serialized onto the sender's egress
	// link (the NIC transmitted it) but never arrives and the delivery
	// callback never runs.
	Drop bool
	// SlowFactor multiplies the serialization time when > 1 (degraded
	// link bandwidth). Values ≤ 1 leave bandwidth untouched.
	SlowFactor float64
	// ExtraLatency is added to the one-way latency.
	ExtraLatency sim.Time
}

// Perturber decides the fate of messages in flight — the hook through
// which a fault injector makes the fabric lossy or degraded. Perturb is
// called once per internode message before any link bookkeeping; it must
// be deterministic given the engine's RNG state.
type Perturber interface {
	Perturb(src, dst, bytes int) Verdict
}

// LinkStats counts traffic on one directed node pair.
type LinkStats struct {
	Messages int64
	Bytes    int64
	Drops    int64
	Dropped  int64 // bytes lost
}

// Stats summarizes fabric traffic, including losses.
type Stats struct {
	Messages int64
	Bytes    int64
	Drops    int64
	Dropped  int64 // bytes lost
}

// Fabric connects the nodes of a cluster.
type Fabric struct {
	eng     *sim.Engine
	par     Params
	egress  []sim.Time // per-node link-free times
	ingress []sim.Time
	// flows[src][dst] counts in-flight messages per node pair;
	// inFlows[dst] counts distinct source nodes currently sending to
	// dst (the incast flow count).
	flows   [][]int
	inFlows []int

	pert  Perturber
	stats Stats
	links [][]LinkStats

	free []*flight // recycled in-flight records, reused by Deliver

	tr obs.Tracer // nil unless the run is traced
}

// flight is one internode message on the wire. Flights are recycled
// through the fabric's free list, and each builds its arrival callback
// once, so a delivery schedules no new closure.
type flight struct {
	f        *Fabric
	src, dst int
	fn       func()
	arriveFn func()
}

// arrive ends the flight's share of the incast bookkeeping, recycles it
// and runs the delivery callback.
func (fl *flight) arrive() {
	f := fl.f
	f.flows[fl.src][fl.dst]--
	if f.flows[fl.src][fl.dst] == 0 {
		f.inFlows[fl.dst]--
	}
	fn := fl.fn
	fl.fn = nil
	f.free = append(f.free, fl)
	fn()
}

// SetTracer attaches an observability tracer for internode delivery,
// drop and delay events (the loopback fast path is not traced).
func (f *Fabric) SetTracer(tr obs.Tracer) { f.tr = tr }

// New builds a fabric for `nodes` nodes.
func New(eng *sim.Engine, nodes int, par Params) (*Fabric, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("netsim: %d nodes", nodes)
	}
	flows := make([][]int, nodes)
	links := make([][]LinkStats, nodes)
	for i := range flows {
		flows[i] = make([]int, nodes)
		links[i] = make([]LinkStats, nodes)
	}
	return &Fabric{
		eng:     eng,
		par:     par,
		egress:  make([]sim.Time, nodes),
		ingress: make([]sim.Time, nodes),
		flows:   flows,
		inFlows: make([]int, nodes),
		links:   links,
	}, nil
}

// MustNew is New but panics on error.
func MustNew(eng *sim.Engine, nodes int, par Params) *Fabric {
	f, err := New(eng, nodes, par)
	if err != nil {
		panic(err)
	}
	return f
}

// Params returns the fabric configuration.
func (f *Fabric) Params() Params { return f.par }

// Nodes reports the number of attached nodes.
func (f *Fabric) Nodes() int { return len(f.egress) }

// Stats reports total traffic carried and lost.
func (f *Fabric) Stats() Stats { return f.stats }

// Link reports the traffic counters of the directed link src -> dst.
func (f *Fabric) Link(src, dst int) LinkStats { return f.links[src][dst] }

// SetPerturber installs (or, with nil, removes) the fault hook consulted
// for every internode message.
func (f *Fabric) SetPerturber(p Perturber) { f.pert = p }

// Deliver schedules delivery of a message of the given size from node src
// to node dst, invoking fn when the last byte arrives. It returns the
// arrival time. If the active Perturber drops the message, fn never runs
// and the returned time is when the sender finished transmitting into the
// void.
func (f *Fabric) Deliver(src, dst int, bytes int, fn func()) sim.Time {
	if src < 0 || src >= len(f.egress) || dst < 0 || dst >= len(f.egress) {
		panic(fmt.Sprintf("netsim: node out of range (%d -> %d of %d)", src, dst, len(f.egress)))
	}
	if bytes < 0 {
		panic("netsim: negative message size")
	}
	if fn == nil {
		fn = func() {}
	}
	f.stats.Messages++
	f.stats.Bytes += int64(bytes)
	f.links[src][dst].Messages++
	f.links[src][dst].Bytes += int64(bytes)
	now := f.eng.Now()

	if src == dst {
		// The loopback fast path never touches the NIC; node and link
		// faults do not apply.
		d := f.par.IntraLatency + serialize(bytes, f.par.IntraBytesPerSec)
		at := now + d
		f.eng.At(at, fn)
		return at
	}

	var v Verdict
	if f.pert != nil {
		v = f.pert.Perturb(src, dst, bytes)
	}

	ser := serialize(bytes, f.par.BytesPerSec)
	if v.SlowFactor > 1 {
		ser = sim.Time(float64(ser) * v.SlowFactor)
	}
	if v.Drop {
		// The sender's NIC still serializes the message; it is lost in
		// the switch (or at a dead receiver) and never engages the
		// ingress link or the incast bookkeeping.
		f.stats.Drops++
		f.stats.Dropped += int64(bytes)
		f.links[src][dst].Drops++
		f.links[src][dst].Dropped += int64(bytes)
		if f.tr != nil {
			f.tr.Emit(obs.Event{Time: now, Type: obs.EvNetDrop, Node: int32(src),
				Track: -1, A: int64(dst), B: int64(bytes)})
		}
		txEnd := maxTime(now, f.egress[src]) + ser
		f.egress[src] = txEnd
		return txEnd
	}
	if f.tr != nil && (v.SlowFactor > 1 || v.ExtraLatency > 0) {
		f.tr.Emit(obs.Event{Time: now, Dur: v.ExtraLatency, Type: obs.EvNetDelay,
			Node: int32(src), Track: -1, A: int64(dst), B: int64(bytes)})
	}
	// Incast congestion: concurrent flows from other nodes toward dst
	// degrade goodput past the switch-buffer cliff.
	if f.par.CongestionBeta > 0 {
		c := float64(f.inFlows[dst])
		if f.flows[src][dst] > 0 {
			c-- // our own flow does not congest itself
		}
		if c > 0 {
			ser = sim.Time(float64(ser) * (1 + f.par.CongestionBeta*c*c))
		}
	}
	if f.flows[src][dst] == 0 {
		f.inFlows[dst]++
	}
	f.flows[src][dst]++
	txStart := maxTime(now, f.egress[src])
	txEnd := txStart + ser
	f.egress[src] = txEnd
	// Pipelined: first byte hits the receiver one latency after txStart;
	// the ingress link then serializes it subject to earlier arrivals.
	rxStart := maxTime(txStart+f.par.Latency+v.ExtraLatency, f.ingress[dst])
	rxEnd := rxStart + ser
	f.ingress[dst] = rxEnd
	if f.tr != nil {
		f.tr.Emit(obs.Event{Time: now, Dur: rxEnd - now, Type: obs.EvNetDeliver,
			Node: int32(src), Track: -1, A: int64(dst), B: int64(bytes)})
	}
	var fl *flight
	if n := len(f.free); n > 0 {
		fl = f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
	} else {
		fl = &flight{f: f}
		fl.arriveFn = fl.arrive
	}
	fl.src, fl.dst, fl.fn = src, dst, fn
	f.eng.At(rxEnd, fl.arriveFn)
	return rxEnd
}

func serialize(bytes int, bw float64) sim.Time {
	return sim.Time(float64(bytes) / bw * float64(sim.Second))
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
