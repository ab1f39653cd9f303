// Package obs is the simulator's observability bus: typed events from
// every subsystem (SMM entry/exit, scheduling, MPI traffic, fabric
// perturbations, fault activations, sweep cells, profiler decisions)
// flow through one Tracer into pluggable sinks — an in-memory ring, a
// streaming Chrome/Perfetto trace writer, and a metrics registry of
// counters, gauges and fixed-bucket histograms keyed by node/rank.
//
// The paper's point is that SMM time is invisible to system software;
// the simulator knows the ground truth, and this package is how a run
// exports that truth as a live record instead of a few end-of-run
// numbers. Emission is strictly opt-in: components hold a nil Tracer by
// default and every emit site is guarded by a nil check, so an untraced
// run pays one predictable branch per event and the sim engine's
// scheduling hot path stays allocation-free (guarded by the alloc tests
// in internal/sim).
//
// Events are flat value structs passed by value through the Tracer
// interface — no boxing, no per-event allocation at the emit site. Only
// static or pre-built strings belong in Event.Name.
package obs

import "smistudy/internal/sim"

// Version identifies the package revision recorded in run manifests.
const Version = "0.4.0"

// Category groups event types for filtering and for the Chrome sink's
// "cat" field.
type Category uint8

// Event categories.
const (
	CatNone Category = iota
	CatSMM
	CatSched
	CatMPI
	CatNet
	CatFault
	CatSweep
	CatProf
	CatTask
	CatNoise
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CatSMM:
		return "smm"
	case CatSched:
		return "sched"
	case CatMPI:
		return "mpi"
	case CatNet:
		return "net"
	case CatFault:
		return "fault"
	case CatSweep:
		return "sweep"
	case CatProf:
		return "prof"
	case CatTask:
		return "task"
	case CatNoise:
		return "noise"
	default:
		return "none"
	}
}

// Type identifies what happened.
type Type uint8

// Event types. The meaning of the generic fields per type:
//
//	SMMEnter        Node                       SMM entry (all CPUs stall)
//	SMMExit         Node, Dur = residency      SMM exit; span [Time-Dur, Time]
//	SchedRun        Node, Track = CPU, A = tid thread placed on a CPU
//	SchedPreempt    Node, Track = CPU, A = tid thread left its CPU (blocked/exited)
//	SchedMigrate    Node, Track = CPU, A = tid, B = old CPU
//	TaskSpawn       Node, A = pid              kernel task created
//	TaskExit        Node, A = pid              kernel task returned
//	MPISend         Node, Track = rank, A = dst rank, B = bytes
//	MPIRecv         Node, Track = rank, A = src rank, B = bytes
//	MPIRetransmit   Node = src node, A = dst node, B = bytes
//	CollBegin       Node, Track = rank, Name = collective
//	CollEnd         Node, Track = rank, Name = collective
//	NetDeliver      Node = src, A = dst, B = bytes, Dur = delivery latency
//	NetDrop         Node = src, A = dst, B = bytes
//	NetDelay        Node = src, A = dst, B = bytes, Dur = extra latency
//	FaultStart      Node (-1 for link faults), A = src, B = dst, Name = kind
//	FaultEnd        same as FaultStart
//	SweepCellStart  Run, A = cell seed
//	SweepCellFinish Run, A = cell seed, Dur = simulated cell length
//	SweepCellCached  Run                       cell replayed from the durable store
//	SweepCellRetry   Run, A = next attempt (1-based), Name = cause
//	SweepCellTimeout Run, A = attempt (1-based)     cell hit its wall-clock deadline
//	SweepCellFail    Run, A = attempts, Name = cause cell failed permanently
//	ProfSample      Node, A = CPU samples taken this tick
//	ProfDrop        Node                       tick lost inside SMM
//	ProfDefer       Node                       tick taken late at SMM exit
//	UserSpan        Track, Name, Dur           caller-defined span [Time-Dur, Time]
//	StealEnter      Node, Track = CPU, Name = family    core-scoped steal begins
//	StealExit       Node, Track = CPU, Name = family, Dur = stolen; span [Time-Dur, Time]
const (
	EvNone Type = iota
	EvSMMEnter
	EvSMMExit
	EvSchedRun
	EvSchedPreempt
	EvSchedMigrate
	EvTaskSpawn
	EvTaskExit
	EvMPISend
	EvMPIRecv
	EvMPIRetransmit
	EvCollBegin
	EvCollEnd
	EvNetDeliver
	EvNetDrop
	EvNetDelay
	EvFaultStart
	EvFaultEnd
	EvSweepCellStart
	EvSweepCellFinish
	EvSweepCellCached
	EvSweepCellRetry
	EvSweepCellTimeout
	EvSweepCellFail
	EvProfSample
	EvProfDrop
	EvProfDefer
	EvUserSpan
	EvStealEnter
	EvStealExit

	numTypes // sentinel
)

var typeNames = [numTypes]string{
	EvNone:             "none",
	EvSMMEnter:         "smm_enter",
	EvSMMExit:          "smm",
	EvSchedRun:         "run",
	EvSchedPreempt:     "preempt",
	EvSchedMigrate:     "migrate",
	EvTaskSpawn:        "spawn",
	EvTaskExit:         "exit",
	EvMPISend:          "send",
	EvMPIRecv:          "recv",
	EvMPIRetransmit:    "retransmit",
	EvCollBegin:        "coll",
	EvCollEnd:          "coll",
	EvNetDeliver:       "deliver",
	EvNetDrop:          "drop",
	EvNetDelay:         "delay",
	EvFaultStart:       "fault",
	EvFaultEnd:         "fault_end",
	EvSweepCellStart:   "cell",
	EvSweepCellFinish:  "cell",
	EvSweepCellCached:  "cell_cached",
	EvSweepCellRetry:   "cell_retry",
	EvSweepCellTimeout: "cell_timeout",
	EvSweepCellFail:    "cell_fail",
	EvProfSample:       "sample",
	EvProfDrop:         "sample_lost",
	EvProfDefer:        "sample_deferred",
	EvUserSpan:         "span",
	EvStealEnter:       "steal_enter",
	EvStealExit:        "steal",
}

var typeCats = [numTypes]Category{
	EvSMMEnter:         CatSMM,
	EvSMMExit:          CatSMM,
	EvSchedRun:         CatSched,
	EvSchedPreempt:     CatSched,
	EvSchedMigrate:     CatSched,
	EvTaskSpawn:        CatSched,
	EvTaskExit:         CatSched,
	EvMPISend:          CatMPI,
	EvMPIRecv:          CatMPI,
	EvMPIRetransmit:    CatMPI,
	EvCollBegin:        CatMPI,
	EvCollEnd:          CatMPI,
	EvNetDeliver:       CatNet,
	EvNetDrop:          CatNet,
	EvNetDelay:         CatNet,
	EvFaultStart:       CatFault,
	EvFaultEnd:         CatFault,
	EvSweepCellStart:   CatSweep,
	EvSweepCellFinish:  CatSweep,
	EvSweepCellCached:  CatSweep,
	EvSweepCellRetry:   CatSweep,
	EvSweepCellTimeout: CatSweep,
	EvSweepCellFail:    CatSweep,
	EvProfSample:       CatProf,
	EvProfDrop:         CatProf,
	EvProfDefer:        CatProf,
	EvUserSpan:         CatTask,
	EvStealEnter:       CatNoise,
	EvStealExit:        CatNoise,
}

// String implements fmt.Stringer.
func (t Type) String() string {
	if t < numTypes {
		return typeNames[t]
	}
	return "unknown"
}

// Category reports the event type's category.
func (t Type) Category() Category {
	if t < numTypes {
		return typeCats[t]
	}
	return CatNone
}

// Event is one typed occurrence on the simulation timeline. It is a
// flat value struct: emitting one costs no allocation. Field meaning
// varies by Type (see the Type constants); unused fields are zero.
type Event struct {
	Time sim.Time // when the event happened (engine time)
	Dur  sim.Time // span length for span-like events, zero otherwise
	Type Type
	Run  int32 // sweep-cell / run index the event belongs to
	Node int32 // originating node, -1 when not node-scoped
	// Track is the per-node timeline the event belongs to: a logical
	// CPU id for scheduling events, a rank id for MPI events, a
	// caller-chosen track for UserSpan. -1 when not tracked.
	Track int32
	A, B  int64  // type-specific arguments
	Name  string // static label (thread name, collective, fault kind)
}

// Tracer receives events. Implementations must tolerate concurrent
// Emit calls when the run fans sweep cells over multiple workers (Bus
// serializes; bare sinks used directly are single-goroutine).
type Tracer interface {
	Emit(Event)
}

// TracerFunc adapts a plain function to the Tracer interface. The
// function must tolerate concurrent calls under the same conditions a
// Tracer must.
type TracerFunc func(Event)

// Emit implements Tracer.
func (f TracerFunc) Emit(ev Event) { f(ev) }

// runScope stamps a run index onto every event, so concurrent sweep
// cells sharing one bus land on disjoint (Run, Node) timelines.
type runScope struct {
	tr  Tracer
	run int32
}

// Emit implements Tracer.
func (s runScope) Emit(ev Event) {
	ev.Run = s.run
	s.tr.Emit(ev)
}

// WithRun wraps a tracer so every event it forwards carries the given
// run index. Wrapping is cheap (a stack value and one virtual call);
// per-run wrappers are how a parallel sweep keeps cells separable in
// one trace.
func WithRun(tr Tracer, run int32) Tracer {
	if tr == nil {
		return nil
	}
	return runScope{tr: tr, run: run}
}

// BusOf returns the bus tr feeds, looking through run scopes, or nil
// when tr does not end in a bus.
func BusOf(tr Tracer) *Bus {
	for {
		switch t := tr.(type) {
		case *Bus:
			return t
		case runScope:
			tr = t.tr
		default:
			return nil
		}
	}
}
