package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

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
// monotone per track.
//
// Records are appended to one reused buffer, which goes to the writer
// in chunks of at least chunkSize bytes and at Close, so the sink
// allocates nothing per record and needs no bufio.Writer in front of
// it. Until Close, up to one chunk of records is held in memory only.
type ChromeSink struct {
	w       io.Writer
	err     error
	started bool
	events  int64 // records in chunks w accepted in full
	pending int64 // records in buf
	buf     []byte

	procNamed   map[int64]bool
	threadNamed map[trackKey]bool
	procNames   map[int64]string // pre-registered display names
}

// chunkSize is the buffered byte count that triggers a write.
const chunkSize = 64 << 10

// trackKey identifies one (process, thread) timeline.
type trackKey struct {
	pid int64
	tid int32
}

// NewChromeSink returns a sink streaming to w.
func NewChromeSink(w io.Writer) *ChromeSink {
	return &ChromeSink{
		w:           w,
		buf:         make([]byte, 0, chunkSize+1024),
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
// reached the writer: only records in chunks it accepted in full count.
// Manifests record it so a reader can detect truncation.
func (c *ChromeSink) Events() int64 { return c.events }

// Close terminates the JSON document and writes out the buffer. It
// then lets go of the writer and the buffer, so a closed sink still
// reachable from a run's results does not pin them; later calls do
// nothing.
func (c *ChromeSink) Close() error {
	if c.w == nil {
		return c.err
	}
	if c.err == nil {
		if !c.started {
			c.buf = append(c.buf, `{"traceEvents":[]}`+"\n"...)
		} else {
			c.buf = append(c.buf, "\n]}\n"...)
		}
		c.flush()
	}
	c.w, c.buf = nil, nil
	return c.err
}

// flush hands the buffer to the writer in one call.
func (c *ChromeSink) flush() {
	if _, err := c.w.Write(c.buf); err != nil {
		c.err = err
	} else {
		c.events += c.pending
	}
	c.pending = 0
	c.buf = c.buf[:0]
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

// appendUS appends a sim.Time as Chrome's microsecond timestamp with
// three decimals, the text strconv.FormatFloat(t/1µs, 'f', 3, 64)
// gives. Below 2^52 ns the float64 quotient lies within half an ulp
// (< 0.0005 µs) of the exact decimal, so integer microseconds plus the
// nanosecond remainder are that text; larger times take FormatFloat's
// own path.
func appendUS(b []byte, t sim.Time) []byte {
	if t <= -1<<52 || t >= 1<<52 {
		return strconv.AppendFloat(b, float64(t)/float64(sim.Microsecond), 'f', 3, 64)
	}
	if t < 0 {
		b = append(b, '-')
		t = -t
	}
	b = strconv.AppendInt(b, int64(t/sim.Microsecond), 10)
	ns := int(t % sim.Microsecond)
	return append(b, '.', byte('0'+ns/100), byte('0'+ns/10%10), byte('0'+ns%10))
}

// appendLabel appends a label as a JSON string, byte-identical to
// json.Marshal: printable ASCII other than the characters Marshal
// escapes is quoted as is, anything else goes through Marshal.
func appendLabel(b []byte, label string) []byte {
	if plainLabel(label) {
		b = append(b, '"')
		b = append(b, label...)
		return append(b, '"')
	}
	q, err := json.Marshal(label)
	if err != nil {
		return append(b, `"?"`...)
	}
	return append(b, q...)
}

// plainLabel reports whether s needs no JSON escaping.
func plainLabel(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// begin opens a record: the document header before the first one, the
// separator before the rest.
func (c *ChromeSink) begin() {
	if !c.started {
		c.started = true
		c.buf = append(c.buf, `{"traceEvents":[`+"\n"...)
		return
	}
	c.buf = append(c.buf, ",\n"...)
}

// end closes a record and writes out a full chunk.
func (c *ChromeSink) end() {
	c.pending++
	if len(c.buf) >= chunkSize {
		c.flush()
	}
}

// head appends the fields every record starts with:
// {"name":…,"cat":"…","ph":"…".
func (c *ChromeSink) head(name, cat, ph string) {
	c.begin()
	c.buf = append(c.buf, `{"name":`...)
	c.buf = appendLabel(c.buf, name)
	c.buf = append(c.buf, `,"cat":"`...)
	c.buf = append(c.buf, cat...)
	c.buf = append(c.buf, `","ph":"`...)
	c.buf = append(c.buf, ph...)
	c.buf = append(c.buf, '"')
}

// tail appends ,"pid":…,"tid":… and, for spans and instants, the args.
func (c *ChromeSink) tail(pid int64, tid int32, args bool, a, b int64) {
	c.buf = append(c.buf, `,"pid":`...)
	c.buf = strconv.AppendInt(c.buf, pid, 10)
	c.buf = append(c.buf, `,"tid":`...)
	c.buf = strconv.AppendInt(c.buf, int64(tid), 10)
	if args {
		c.buf = append(c.buf, `,"args":{"a":`...)
		c.buf = strconv.AppendInt(c.buf, a, 10)
		c.buf = append(c.buf, `,"b":`...)
		c.buf = strconv.AppendInt(c.buf, b, 10)
		c.buf = append(c.buf, '}')
	}
	c.buf = append(c.buf, '}')
	c.end()
}

func (c *ChromeSink) meta(pid int64, tid int32, kind, name string) {
	c.begin()
	c.buf = append(c.buf, `{"name":"`...)
	c.buf = append(c.buf, kind...)
	c.buf = append(c.buf, `","ph":"M","pid":`...)
	c.buf = strconv.AppendInt(c.buf, pid, 10)
	c.buf = append(c.buf, `,"tid":`...)
	c.buf = strconv.AppendInt(c.buf, int64(tid), 10)
	c.buf = append(c.buf, `,"args":{"name":`...)
	c.buf = appendLabel(c.buf, name)
	c.buf = append(c.buf, "}}"...)
	c.end()
}

// noIndex marks a thread name that carries no track number.
const noIndex int64 = math.MinInt64

// ensureTrack lazily emits process_name / thread_name metadata. The
// thread is named threadName followed by idx, unless idx is noIndex;
// the name is built only when the track first appears.
func (c *ChromeSink) ensureTrack(run, node, tid int32, threadName string, idx int64) int64 {
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
		if idx != noIndex {
			threadName += strconv.FormatInt(idx, 10)
		}
		c.meta(pid, tid, "thread_name", threadName)
	}
	return pid
}

// complete writes an "X" span.
func (c *ChromeSink) complete(pid int64, tid int32, name, cat string, start, dur sim.Time, a, b int64) {
	c.head(name, cat, "X")
	c.buf = append(c.buf, `,"ts":`...)
	c.buf = appendUS(c.buf, start)
	c.buf = append(c.buf, `,"dur":`...)
	c.buf = appendUS(c.buf, dur)
	c.tail(pid, tid, true, a, b)
}

// instant writes an "i" thread-scoped instant.
func (c *ChromeSink) instant(pid int64, tid int32, name, cat string, t sim.Time, a, b int64) {
	c.head(name, cat, "i")
	c.buf = append(c.buf, `,"s":"t","ts":`...)
	c.buf = appendUS(c.buf, t)
	c.tail(pid, tid, true, a, b)
}

// beginEnd writes a "B" or "E" duration edge.
func (c *ChromeSink) beginEnd(ph string, pid int64, tid int32, name, cat string, t sim.Time) {
	c.head(name, cat, ph)
	c.buf = append(c.buf, `,"ts":`...)
	c.buf = appendUS(c.buf, t)
	c.tail(pid, tid, false, 0, 0)
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
	if c.err != nil || c.w == nil {
		return
	}
	cat := ev.Type.Category().String()
	switch ev.Type {
	case EvSMMEnter:
		// The residency span written at exit covers the episode; the
		// entry itself adds nothing to the timeline.
	case EvSMMExit:
		pid := c.ensureTrack(ev.Run, ev.Node, tidSMM, "smm", noIndex)
		c.complete(pid, tidSMM, "smm", cat, ev.Time-ev.Dur, ev.Dur, ev.A, ev.B)
	case EvStealEnter:
		// As with SMM, the residency span written at exit covers the
		// whole episode.
	case EvStealExit:
		tid := tidSteal0 + ev.Track
		pid := c.ensureTrack(ev.Run, ev.Node, tid, "steal", int64(ev.Track))
		c.complete(pid, tid, ev.Name, cat, ev.Time-ev.Dur, ev.Dur, ev.A, ev.B)
	case EvSchedRun, EvSchedPreempt, EvSchedMigrate:
		tid := 1 + ev.Track
		pid := c.ensureTrack(ev.Run, ev.Node, tid, "cpu", int64(ev.Track))
		c.instant(pid, tid, ev.Type.String(), cat, ev.Time, ev.A, ev.B)
	case EvTaskSpawn, EvTaskExit:
		pid := c.ensureTrack(ev.Run, ev.Node, tidTasks, "tasks", noIndex)
		name := ev.Type.String()
		if ev.Name != "" {
			name = ev.Name
		}
		c.instant(pid, tidTasks, name, cat, ev.Time, ev.A, ev.B)
	case EvMPISend, EvMPIRecv:
		tid := 100 + ev.Track
		pid := c.ensureTrack(ev.Run, ev.Node, tid, "rank", int64(ev.Track))
		c.instant(pid, tid, ev.Type.String(), cat, ev.Time, ev.A, ev.B)
	case EvMPIRetransmit:
		pid := c.ensureTrack(ev.Run, ev.Node, tidTransport, "transport", noIndex)
		c.instant(pid, tidTransport, "retransmit", cat, ev.Time, ev.A, ev.B)
	case EvCollBegin, EvCollEnd:
		tid := 100 + ev.Track
		pid := c.ensureTrack(ev.Run, ev.Node, tid, "rank", int64(ev.Track))
		ph := "B"
		if ev.Type == EvCollEnd {
			ph = "E"
		}
		c.beginEnd(ph, pid, tid, ev.Name, cat, ev.Time)
	case EvNetDeliver:
		pid := c.ensureTrack(ev.Run, ev.Node, tidNet, "net", noIndex)
		c.complete(pid, tidNet, "deliver", cat, ev.Time, ev.Dur, ev.A, ev.B)
	case EvNetDrop, EvNetDelay:
		pid := c.ensureTrack(ev.Run, ev.Node, tidNet, "net", noIndex)
		c.instant(pid, tidNet, ev.Type.String(), cat, ev.Time, ev.A, ev.B)
	case EvFaultStart, EvFaultEnd:
		pid := c.ensureTrack(ev.Run, ev.Node, tidFault, "faults", noIndex)
		name := ev.Name
		if name == "" {
			name = ev.Type.String()
		} else if ev.Type == EvFaultEnd {
			name += " end"
		}
		c.instant(pid, tidFault, name, cat, ev.Time, ev.A, ev.B)
	case EvProfSample, EvProfDrop, EvProfDefer:
		pid := c.ensureTrack(ev.Run, ev.Node, tidProf, "profiler", noIndex)
		c.instant(pid, tidProf, ev.Type.String(), cat, ev.Time, ev.A, ev.B)
	case EvSweepCellStart:
		pid := c.ensureTrack(ev.Run, -1, tidCells, "cells", noIndex)
		c.instant(pid, tidCells, "cell start", cat, ev.Time, ev.A, ev.B)
	case EvSweepCellFinish:
		pid := c.ensureTrack(ev.Run, -1, tidCells, "cells", noIndex)
		c.complete(pid, tidCells, "cell", cat, ev.Time-ev.Dur, ev.Dur, ev.A, ev.B)
	case EvSweepCellCached, EvSweepCellRetry, EvSweepCellTimeout, EvSweepCellFail:
		pid := c.ensureTrack(ev.Run, -1, tidCells, "cells", noIndex)
		name := ev.Type.String()
		if ev.Name != "" {
			name += " " + ev.Name
		}
		c.instant(pid, tidCells, name, cat, ev.Time, ev.A, ev.B)
	case EvUserSpan:
		pid := c.ensureTrack(ev.Run, ev.Node, ev.Track, ev.Name, noIndex)
		c.complete(pid, ev.Track, ev.Name, cat, ev.Time-ev.Dur, ev.Dur, ev.A, ev.B)
	}
}
