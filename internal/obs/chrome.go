package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"smistudy/internal/sim"
)

// ChromeSink streams bus events to an io.Writer in the Chrome
// trace-event JSON format (load in Perfetto or chrome://tracing).
//
// Layout: one trace process per (run, node) pair — pid = run·1024 +
// node + 1, so parallel sweep cells wrapped in WithRun occupy disjoint
// pid ranges — and one track (tid) per timeline inside a node:
//
//	tid 1+cpu   scheduling instants for each logical CPU
//	tid 100+r   MPI traffic and collective phases for rank r
//	tid 900     fabric drops/delays/deliveries
//	tid 901     fault activations
//	tid 902     profiler sample decisions
//	tid 903     transport retransmissions
//	tid 998     kernel task spawn/exit
//	tid 1000    ground-truth SMM residency spans
//	tid Track   caller-chosen tracks for UserSpan events
//
// Events with Node = -1 (link faults, sweep cells) land on the run's
// "cluster" process (pid = run·1024). Metadata records naming processes
// and threads are emitted lazily on first appearance. Events are
// written in Emit order; a single engine emits in time order, so ts is
// monotone per track. Writes are unbuffered — hand the sink a
// bufio.Writer and flush after Close.
type ChromeSink struct {
	w       io.Writer
	err     error
	started bool
	first   bool
	events  int64

	procNamed   map[int64]bool
	threadNamed map[trackKey]bool
	procNames   map[int64]string // pre-registered display names
}

// trackKey identifies one (process, thread) timeline.
type trackKey struct {
	pid int64
	tid int32
}

// NewChromeSink returns a sink streaming to w.
func NewChromeSink(w io.Writer) *ChromeSink {
	return &ChromeSink{
		w:           w,
		procNamed:   map[int64]bool{},
		threadNamed: map[trackKey]bool{},
		procNames:   map[int64]string{},
	}
}

// NameProcess pre-registers a display name for the (run, node) process,
// overriding the default "run R · node N" label.
func (c *ChromeSink) NameProcess(run, node int32, name string) {
	c.procNames[PidFor(run, node)] = name
}

// Err reports the first write error, if any. A trace whose sink
// reported an error is lossy: downstream consumers (smireport) must
// treat attribution computed from it as approximate.
func (c *ChromeSink) Err() error { return c.err }

// Events reports how many trace records (spans, instants, metadata)
// were written. Manifests record it so a reader can detect truncation.
func (c *ChromeSink) Events() int64 { return c.events }

// Close terminates the JSON document. The sink must not be used after.
func (c *ChromeSink) Close() error {
	if c.err != nil {
		return c.err
	}
	if !c.started {
		_, c.err = io.WriteString(c.w, `{"traceEvents":[]}`+"\n")
		return c.err
	}
	_, c.err = io.WriteString(c.w, "\n]}\n")
	return c.err
}

// PidFor maps a (run, node) pair onto its trace-process id: runs own
// disjoint blocks of 1024 pids, node -1 (the run's cluster-scoped
// events) takes the block's first slot. The result is 64-bit so sweep
// traces with millions of cells never wrap: pids stay unique for any
// run index as long as node < 1023, far above the modeled topologies.
// SplitPid is the inverse.
func PidFor(run, node int32) int64 { return int64(run)*1024 + int64(node) + 1 }

// SplitPid recovers the (run, node) pair PidFor encoded.
func SplitPid(pid int64) (run, node int32) {
	return int32(pid / 1024), int32(pid%1024) - 1
}

// us renders a sim.Time as Chrome's microsecond timestamps.
func us(t sim.Time) string {
	return strconv.FormatFloat(float64(t)/float64(sim.Microsecond), 'f', 3, 64)
}

// jstr JSON-encodes a label (labels are caller-supplied for UserSpan).
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		return `"?"`
	}
	return string(b)
}

func (c *ChromeSink) raw(s string) {
	if c.err != nil {
		return
	}
	if !c.started {
		c.started = true
		c.first = true
		if _, c.err = io.WriteString(c.w, `{"traceEvents":[`+"\n"); c.err != nil {
			return
		}
	}
	if !c.first {
		if _, c.err = io.WriteString(c.w, ",\n"); c.err != nil {
			return
		}
	}
	c.first = false
	if _, c.err = io.WriteString(c.w, s); c.err == nil {
		c.events++
	}
}

func (c *ChromeSink) meta(pid int64, tid int32, kind, name string) {
	c.raw(fmt.Sprintf(`{"name":%q,"ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
		kind, pid, tid, jstr(name)))
}

// ensureTrack lazily emits process_name / thread_name metadata.
func (c *ChromeSink) ensureTrack(run, node, tid int32, threadName string) int64 {
	pid := PidFor(run, node)
	if !c.procNamed[pid] {
		c.procNamed[pid] = true
		name, ok := c.procNames[pid]
		if !ok {
			switch {
			case node < 0 && run == 0:
				name = "cluster"
			case node < 0:
				name = fmt.Sprintf("run%d · cluster", run)
			case run == 0:
				name = fmt.Sprintf("node%d", node)
			default:
				name = fmt.Sprintf("run%d · node%d", run, node)
			}
		}
		c.meta(pid, 0, "process_name", name)
	}
	key := trackKey{pid, tid}
	if !c.threadNamed[key] {
		c.threadNamed[key] = true
		c.meta(pid, tid, "thread_name", threadName)
	}
	return pid
}

// complete writes an "X" span.
func (c *ChromeSink) complete(pid int64, tid int32, name, cat string, start, dur sim.Time, a, b int64) {
	c.raw(fmt.Sprintf(`{"name":%s,"cat":%q,"ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d,"args":{"a":%d,"b":%d}}`,
		jstr(name), cat, us(start), us(dur), pid, tid, a, b))
}

// instant writes an "i" thread-scoped instant.
func (c *ChromeSink) instant(pid int64, tid int32, name, cat string, t sim.Time, a, b int64) {
	c.raw(fmt.Sprintf(`{"name":%s,"cat":%q,"ph":"i","s":"t","ts":%s,"pid":%d,"tid":%d,"args":{"a":%d,"b":%d}}`,
		jstr(name), cat, us(t), pid, tid, a, b))
}

// beginEnd writes a "B" or "E" duration edge.
func (c *ChromeSink) beginEnd(ph string, pid int64, tid int32, name, cat string, t sim.Time) {
	c.raw(fmt.Sprintf(`{"name":%s,"cat":%q,"ph":%q,"ts":%s,"pid":%d,"tid":%d}`,
		jstr(name), cat, ph, us(t), pid, tid))
}

// Tid constants for fixed per-node tracks (see the type comment).
// Exported via the Track* constants in stream.go; these aliases keep
// the emit switch readable.
const (
	tidNet       = TidNet
	tidFault     = TidFault
	tidProf      = TidProf
	tidTransport = TidTransport
	tidTasks     = TidTasks
	tidSMM       = TidSMM
	tidSteal0    = TidSteal0
	tidCells     = TidCells
)

// Emit implements Tracer.
func (c *ChromeSink) Emit(ev Event) {
	cat := ev.Type.Category().String()
	switch ev.Type {
	case EvSMMEnter:
		// The residency span written at exit covers the episode; the
		// entry itself adds nothing to the timeline.
	case EvSMMExit:
		pid := c.ensureTrack(ev.Run, ev.Node, tidSMM, "smm")
		c.complete(pid, tidSMM, "smm", cat, ev.Time-ev.Dur, ev.Dur, ev.A, ev.B)
	case EvStealEnter:
		// As with SMM, the residency span written at exit covers the
		// whole episode.
	case EvStealExit:
		tid := tidSteal0 + ev.Track
		pid := c.ensureTrack(ev.Run, ev.Node, tid, "steal"+strconv.Itoa(int(ev.Track)))
		c.complete(pid, tid, ev.Name, cat, ev.Time-ev.Dur, ev.Dur, ev.A, ev.B)
	case EvSchedRun, EvSchedPreempt, EvSchedMigrate:
		tid := 1 + ev.Track
		pid := c.ensureTrack(ev.Run, ev.Node, tid, "cpu"+strconv.Itoa(int(ev.Track)))
		c.instant(pid, tid, ev.Type.String(), cat, ev.Time, ev.A, ev.B)
	case EvTaskSpawn, EvTaskExit:
		pid := c.ensureTrack(ev.Run, ev.Node, tidTasks, "tasks")
		name := ev.Type.String()
		if ev.Name != "" {
			name = ev.Name
		}
		c.instant(pid, tidTasks, name, cat, ev.Time, ev.A, ev.B)
	case EvMPISend, EvMPIRecv:
		tid := 100 + ev.Track
		pid := c.ensureTrack(ev.Run, ev.Node, tid, "rank"+strconv.Itoa(int(ev.Track)))
		c.instant(pid, tid, ev.Type.String(), cat, ev.Time, ev.A, ev.B)
	case EvMPIRetransmit:
		pid := c.ensureTrack(ev.Run, ev.Node, tidTransport, "transport")
		c.instant(pid, tidTransport, "retransmit", cat, ev.Time, ev.A, ev.B)
	case EvCollBegin, EvCollEnd:
		tid := 100 + ev.Track
		pid := c.ensureTrack(ev.Run, ev.Node, tid, "rank"+strconv.Itoa(int(ev.Track)))
		ph := "B"
		if ev.Type == EvCollEnd {
			ph = "E"
		}
		c.beginEnd(ph, pid, tid, ev.Name, cat, ev.Time)
	case EvNetDeliver:
		pid := c.ensureTrack(ev.Run, ev.Node, tidNet, "net")
		c.complete(pid, tidNet, "deliver", cat, ev.Time, ev.Dur, ev.A, ev.B)
	case EvNetDrop, EvNetDelay:
		pid := c.ensureTrack(ev.Run, ev.Node, tidNet, "net")
		c.instant(pid, tidNet, ev.Type.String(), cat, ev.Time, ev.A, ev.B)
	case EvFaultStart, EvFaultEnd:
		pid := c.ensureTrack(ev.Run, ev.Node, tidFault, "faults")
		name := ev.Name
		if name == "" {
			name = ev.Type.String()
		} else if ev.Type == EvFaultEnd {
			name += " end"
		}
		c.instant(pid, tidFault, name, cat, ev.Time, ev.A, ev.B)
	case EvProfSample, EvProfDrop, EvProfDefer:
		pid := c.ensureTrack(ev.Run, ev.Node, tidProf, "profiler")
		c.instant(pid, tidProf, ev.Type.String(), cat, ev.Time, ev.A, ev.B)
	case EvSweepCellStart:
		pid := c.ensureTrack(ev.Run, -1, tidCells, "cells")
		c.instant(pid, tidCells, "cell start", cat, ev.Time, ev.A, ev.B)
	case EvSweepCellFinish:
		pid := c.ensureTrack(ev.Run, -1, tidCells, "cells")
		c.complete(pid, tidCells, "cell", cat, ev.Time-ev.Dur, ev.Dur, ev.A, ev.B)
	case EvSweepCellCached, EvSweepCellRetry, EvSweepCellTimeout, EvSweepCellFail:
		pid := c.ensureTrack(ev.Run, -1, tidCells, "cells")
		name := ev.Type.String()
		if ev.Name != "" {
			name += " " + ev.Name
		}
		c.instant(pid, tidCells, name, cat, ev.Time, ev.A, ev.B)
	case EvUserSpan:
		pid := c.ensureTrack(ev.Run, ev.Node, ev.Track, ev.Name)
		c.complete(pid, ev.Track, ev.Name, cat, ev.Time-ev.Dur, ev.Dur, ev.A, ev.B)
	}
}
