package obs

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"smistudy/internal/sim"
)

// This file is the stable read-side of the observability bus: the
// Chrome/Perfetto trace a run streams to disk can be loaded back into
// typed records, with the (run, node, track) coordinates the sink
// encoded recovered exactly. cmd/smireport builds its attribution trees
// and flame renderings on this surface, so the track layout below is a
// compatibility contract, not an implementation detail.

// Exported per-node track ids (the ChromeSink "tid" layout). CPU tracks
// occupy [TidCPU0, TidCPU0+cpus), rank tracks [TidRank0, TidNet).
const (
	TidCPU0      int32 = 1    // scheduling instants for logical CPU c land on TidCPU0+c
	TidRank0     int32 = 100  // MPI traffic for rank r lands on TidRank0+r
	TidNet       int32 = 900  // fabric deliveries, drops, delays
	TidFault     int32 = 901  // fault activations
	TidProf      int32 = 902  // profiler sample decisions
	TidTransport int32 = 903  // reliable-transport retransmissions
	TidTasks     int32 = 998  // kernel task spawn/exit
	TidSMM       int32 = 1000 // ground-truth SMM residency spans
	TidSteal0    int32 = 1100 // core-scoped steal spans for CPU c land on TidSteal0+c

	// Cluster-process track (node = -1): the sweep-cell timeline.
	TidCells int32 = 1
)

// TrackKind classifies a (node, tid) timeline.
type TrackKind uint8

// Track kinds, in the order a flame rendering stacks them.
const (
	TrackUnknown   TrackKind = iota
	TrackCells               // cluster: sweep-cell spans
	TrackCPU                 // per-node: one logical CPU's scheduling
	TrackRank                // per-node: one MPI rank's traffic
	TrackNet                 // per-node: fabric activity
	TrackFault               // per-node: fault activations
	TrackProf                // per-node: profiler decisions
	TrackTransport           // per-node: retransmissions
	TrackTasks               // per-node: kernel task lifecycle
	TrackSMM                 // per-node: SMM residency ground truth
	TrackSteal               // per-node: one CPU's core-scoped steal ground truth
)

// String implements fmt.Stringer.
func (k TrackKind) String() string {
	switch k {
	case TrackCells:
		return "cells"
	case TrackCPU:
		return "cpu"
	case TrackRank:
		return "rank"
	case TrackNet:
		return "net"
	case TrackFault:
		return "fault"
	case TrackProf:
		return "prof"
	case TrackTransport:
		return "transport"
	case TrackTasks:
		return "tasks"
	case TrackSMM:
		return "smm"
	case TrackSteal:
		return "steal"
	default:
		return "unknown"
	}
}

// TrackOf classifies a timeline and recovers its index (the CPU number
// for TrackCPU, the rank id for TrackRank, zero otherwise). node is the
// decoded SplitPid node; cluster processes use node -1.
func TrackOf(node, tid int32) (TrackKind, int) {
	if node < 0 {
		if tid == TidCells {
			return TrackCells, 0
		}
		return TrackUnknown, 0
	}
	switch {
	case tid >= TidCPU0 && tid < TidRank0:
		return TrackCPU, int(tid - TidCPU0)
	case tid >= TidRank0 && tid < TidNet:
		return TrackRank, int(tid - TidRank0)
	case tid == TidNet:
		return TrackNet, 0
	case tid == TidFault:
		return TrackFault, 0
	case tid == TidProf:
		return TrackProf, 0
	case tid == TidTransport:
		return TrackTransport, 0
	case tid == TidTasks:
		return TrackTasks, 0
	case tid == TidSMM:
		return TrackSMM, 0
	case tid >= TidSteal0 && tid < TidSteal0+99:
		return TrackSteal, int(tid - TidSteal0)
	}
	return TrackUnknown, 0
}

// Span is one interval or instant recovered from a trace: "X" complete
// spans keep their duration, matched "B"/"E" pairs become spans, and
// "i" instants carry Dur 0 with Instant set.
type Span struct {
	Run     int32
	Node    int32 // -1 for cluster-process events
	Tid     int32
	Kind    TrackKind
	Index   int // CPU number or rank id for CPU/rank tracks
	Name    string
	Cat     string
	Start   sim.Time
	Dur     sim.Time
	A, B    int64
	Instant bool
}

// End reports the span's end time.
func (s Span) End() sim.Time { return s.Start + s.Dur }

// Trace is a fully parsed trace stream.
type Trace struct {
	// Spans holds every recovered record in a deterministic order:
	// (Run, Node, Tid, Start, Name), stable in record order. RunIDs,
	// RunSpans and the report package rely on it.
	Spans []Span
	// ProcNames maps a (run, node) process to its display name.
	ProcNames map[int64]string
	// ThreadNames maps a (pid, tid) timeline to its display name.
	ThreadNames map[int64]map[int32]string
	// Records counts trace records parsed, metadata included — the
	// number a manifest's SinkStats.TraceEvents should match.
	Records int64
	// Truncated is set when the stream ended mid-document (a killed or
	// write-errored producer): everything parsed up to the tear is
	// retained, and consumers must treat the trace as lossy.
	Truncated bool
	// Unbalanced counts "B" edges that never saw their "E" (or E
	// without B): a structural anomaly attribution must surface.
	Unbalanced int
}

// RunIDs reports the distinct run indices in the trace, ascending.
func (t *Trace) RunIDs() []int32 {
	var out []int32
	for i, s := range t.Spans {
		if i == 0 || s.Run != t.Spans[i-1].Run {
			out = append(out, s.Run)
		}
	}
	return out
}

// RunSpans returns the spans of one run: the contiguous sub-slice of
// Spans that the (Run, ...) order gives it, found by binary search.
// The result aliases Spans.
func (t *Trace) RunSpans(run int32) []Span {
	lo := sort.Search(len(t.Spans), func(i int) bool { return t.Spans[i].Run >= run })
	hi := lo + sort.Search(len(t.Spans)-lo, func(i int) bool { return t.Spans[lo+i].Run > run })
	return t.Spans[lo:hi]
}

// Select returns a copy of the spans of one run matching the kind
// filter (TrackUnknown selects every kind), preserving order.
func (t *Trace) Select(run int32, kind TrackKind) []Span {
	var out []Span
	for _, s := range t.RunSpans(run) {
		if kind == TrackUnknown || s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// rawEvent is one Chrome trace-event JSON object. ReadTrace's scanner
// fills it under encoding/json's rules; the tags are the keys it
// matches (eventKeys and argKeys in scan.go), and the encoding/json
// reference reader in the tests decodes through them.
type rawEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int64   `json:"pid"`
	Tid  int32   `json:"tid"`
	Args struct {
		Name string `json:"name"`
		A    int64  `json:"a"`
		B    int64  `json:"b"`
	} `json:"args"`
}

// fromUS converts Chrome's microsecond timestamps back to sim.Time,
// rounding to the sink's millisecond-of-a-microsecond precision.
func fromUS(us float64) sim.Time {
	return sim.Time(math.Round(us * float64(sim.Microsecond)))
}

// errTraceHeader reports a stream that does not open with
// {"traceEvents":[.
var errTraceHeader = errors.New(`obs: trace: expected {"traceEvents":[`)

// ReadTrace parses a Chrome trace-event stream written by ChromeSink
// (any {"traceEvents":[...]} document works) in one streaming pass,
// decoding each event as encoding/json would decode it into rawEvent.
// Parsing is lenient about torn tails: a stream cut mid-record — the
// shape a killed producer leaves — returns everything before the tear
// with Truncated set instead of failing, because a partial timeline is
// exactly what a post-mortem needs. So does an event that is not an
// object of rawEvent's shape, and anything after the event array other
// than '}' or ',' and a key. A malformed header is an error.
func ReadTrace(r io.Reader) (*Trace, error) {
	s := newScanner(r)
	if !s.header() {
		if s.err != nil {
			return nil, fmt.Errorf("obs: trace: %w", s.err)
		}
		return nil, errTraceHeader
	}
	b := traceBuilder{
		tr: &Trace{
			ProcNames:   map[int64]string{},
			ThreadNames: map[int64]map[int32]string{},
		},
		open:  map[trackKey][]rawEvent{},
		index: map[spanTrack]int32{},
	}
	tr := b.tr
	for first := true; ; first = false {
		if c, ok := s.peek(); ok && (c == ']' || c == '}') {
			tr.Truncated = !s.trailer()
			break
		}
		var ev rawEvent
		if !first && !s.expect(',') || !s.element(&ev) {
			tr.Truncated = true
			break
		}
		tr.Records++
		b.add(&ev)
	}
	for _, stack := range b.open {
		tr.Unbalanced += len(stack)
	}
	tr.Spans = b.sorted()
	return tr, nil
}

// spanTrack is the (Run, Node, Tid) coordinate spans sort by first.
type spanTrack struct{ run, node, tid int32 }

// traceBuilder turns decoded events into spans, in record order, and
// remembers each span's track for the final sort. Spans are kept in
// fixed-size blocks until then, so a growing slice never copies them.
type traceBuilder struct {
	tr *Trace
	// open holds each track's unmatched "B" edges, a stack per track
	// (collectives nest).
	open   map[trackKey][]rawEvent
	blocks [][]Span
	n      int         // spans held
	track  []int32     // track of each span, an index into tracks
	tracks []spanTrack // distinct tracks in order of appearance
	index  map[spanTrack]int32
}

const spanBlock = 1024 // spans per block

// span returns the i-th span in record order.
func (b *traceBuilder) span(i int32) *Span {
	return &b.blocks[i/spanBlock][i%spanBlock]
}

func (b *traceBuilder) add(ev *rawEvent) {
	tr := b.tr
	run, node := SplitPid(ev.Pid)
	kind, idx := TrackOf(node, ev.Tid)
	span := Span{
		Run: run, Node: node, Tid: ev.Tid, Kind: kind, Index: idx,
		Name: ev.Name, Cat: ev.Cat, Start: fromUS(ev.Ts),
		A: ev.Args.A, B: ev.Args.B,
	}
	switch ev.Ph {
	case "M":
		switch ev.Name {
		case "process_name":
			tr.ProcNames[ev.Pid] = ev.Args.Name
		case "thread_name":
			m := tr.ThreadNames[ev.Pid]
			if m == nil {
				m = map[int32]string{}
				tr.ThreadNames[ev.Pid] = m
			}
			m[ev.Tid] = ev.Args.Name
		}
		return
	case "X":
		span.Dur = fromUS(ev.Dur)
	case "i", "I":
		span.Instant = true
	case "B":
		id := trackKey{ev.Pid, ev.Tid}
		b.open[id] = append(b.open[id], *ev)
		return
	case "E":
		id := trackKey{ev.Pid, ev.Tid}
		stack := b.open[id]
		if len(stack) == 0 {
			tr.Unbalanced++
			return
		}
		begin := stack[len(stack)-1]
		b.open[id] = stack[:len(stack)-1]
		span.Name, span.Cat = begin.Name, begin.Cat
		span.Start = fromUS(begin.Ts)
		span.Dur = fromUS(ev.Ts) - span.Start
		span.A, span.B = begin.Args.A, begin.Args.B
	default:
		return
	}
	key := spanTrack{run, node, ev.Tid}
	t, ok := b.index[key]
	if !ok {
		t = int32(len(b.tracks))
		b.index[key] = t
		b.tracks = append(b.tracks, key)
	}
	if b.n%spanBlock == 0 {
		b.blocks = append(b.blocks, make([]Span, spanBlock))
	}
	b.blocks[b.n/spanBlock][b.n%spanBlock] = span
	b.n++
	b.track = append(b.track, t)
}

// sorted returns the spans in (Run, Node, Tid, Start, Name) order,
// stable with respect to record order, without a merge sort's moves of
// whole spans: a counting sort by track gives each span its slot, a
// stable sort of record indices fixes each track not already in
// (Start, Name) order — usually only rank tracks, whose collective
// spans are recorded at their end — and every span then moves once.
func (b *traceBuilder) sorted() []Span {
	if b.n == 0 {
		return nil
	}
	order := make([]int32, len(b.tracks))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int {
		p, q := b.tracks[x], b.tracks[y]
		if c := cmp.Compare(p.run, q.run); c != 0 {
			return c
		}
		if c := cmp.Compare(p.node, q.node); c != 0 {
			return c
		}
		return cmp.Compare(p.tid, q.tid)
	})
	end := make([]int, len(b.tracks)) // one past each track's last slot
	for _, t := range b.track {
		end[t]++
	}
	n := 0
	for _, t := range order {
		n += end[t]
		end[t] = n - end[t]
	}
	perm := make([]int32, b.n) // perm[k] is the record index of slot k
	for i, t := range b.track {
		perm[end[t]] = int32(i)
		end[t]++
	}
	byTime := func(x, y int32) int {
		p, q := b.span(x), b.span(y)
		if c := cmp.Compare(p.Start, q.Start); c != 0 {
			return c
		}
		return strings.Compare(p.Name, q.Name)
	}
	lo := 0
	for _, t := range order {
		if r := perm[lo:end[t]]; !slices.IsSortedFunc(r, byTime) {
			slices.SortStableFunc(r, byTime)
		}
		lo = end[t]
	}
	spans := make([]Span, b.n)
	for k, i := range perm {
		spans[k] = *b.span(i)
	}
	return spans
}
