package obs

import (
	"bytes"
	"strings"
	"testing"

	"smistudy/internal/sim"
)

// emitSample drives a ChromeSink through a representative event mix
// across two runs: SMM residency spans, scheduling instants, MPI
// traffic, a nested collective, task lifecycle and the sweep-cell span.
func emitSample(sink *ChromeSink) {
	for run := int32(0); run < 2; run++ {
		tr := WithRun(Tracer(sink), run)
		tr.Emit(Event{Time: 0, Type: EvSweepCellStart, Node: -1, Track: -1, A: 42})
		tr.Emit(Event{Time: 1 * sim.Millisecond, Type: EvTaskSpawn, Node: 0, Track: -1, A: 7, Name: "rank0"})
		tr.Emit(Event{Time: 1 * sim.Millisecond, Type: EvSchedRun, Node: 0, Track: 0, A: 7})
		tr.Emit(Event{Time: 2 * sim.Millisecond, Type: EvMPISend, Node: 0, Track: 0, A: 1, B: 4096})
		tr.Emit(Event{Time: 3 * sim.Millisecond, Type: EvCollBegin, Node: 0, Track: 0, Name: "allreduce"})
		tr.Emit(Event{Time: 5 * sim.Millisecond, Type: EvCollEnd, Node: 0, Track: 0, Name: "allreduce"})
		tr.Emit(Event{Time: 9 * sim.Millisecond, Dur: 3 * sim.Millisecond, Type: EvSMMExit, Node: 0, Track: -1})
		tr.Emit(Event{Time: 10 * sim.Millisecond, Type: EvSchedPreempt, Node: 0, Track: 0, A: 7})
		tr.Emit(Event{Time: 11 * sim.Millisecond, Type: EvMPIRetransmit, Node: 0, A: 1, B: 4096})
		tr.Emit(Event{Time: 12 * sim.Millisecond, Type: EvSweepCellFinish, Node: -1, Track: -1, A: 42, Dur: 12 * sim.Millisecond})
	}
}

func TestReadTraceRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeSink(&buf)
	emitSample(sink)
	if err := sink.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	tr, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if tr.Truncated {
		t.Fatal("complete stream reported truncated")
	}
	if tr.Unbalanced != 0 {
		t.Fatalf("Unbalanced = %d, want 0", tr.Unbalanced)
	}
	if tr.Records != sink.Events() {
		t.Fatalf("Records = %d, sink wrote %d", tr.Records, sink.Events())
	}
	if got := tr.RunIDs(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("RunIDs = %v, want [0 1]", got)
	}

	// Per run: the cell span, the matched collective, the SMM span with
	// its start shifted back by the residency, and the sched instants.
	for _, run := range []int32{0, 1} {
		cells := tr.Select(run, TrackCells)
		var cellSpan *Span
		for i := range cells {
			if !cells[i].Instant && cells[i].Name == "cell" {
				cellSpan = &cells[i]
			}
		}
		if cellSpan == nil || cellSpan.Dur != 12*sim.Millisecond {
			t.Fatalf("run %d: cell span = %+v, want 12ms span", run, cellSpan)
		}
		smm := tr.Select(run, TrackSMM)
		if len(smm) != 1 || smm[0].Start != 6*sim.Millisecond || smm[0].Dur != 3*sim.Millisecond {
			t.Fatalf("run %d: smm spans = %+v, want one [6ms,9ms]", run, smm)
		}
		var coll *Span
		for _, s := range tr.Select(run, TrackRank) {
			if !s.Instant && s.Name == "allreduce" {
				c := s
				coll = &c
			}
		}
		if coll == nil || coll.Start != 3*sim.Millisecond || coll.Dur != 2*sim.Millisecond {
			t.Fatalf("run %d: collective = %+v, want [3ms,5ms]", run, coll)
		}
		cpu := tr.Select(run, TrackCPU)
		if len(cpu) != 2 || cpu[0].Name != "run" || cpu[1].Name != "preempt" {
			t.Fatalf("run %d: cpu instants = %+v, want run+preempt", run, cpu)
		}
		if cpu[0].A != 7 {
			t.Fatalf("run %d: sched run A = %d, want tid 7", run, cpu[0].A)
		}
		if n := len(tr.Select(run, TrackTransport)); n != 1 {
			t.Fatalf("run %d: transport instants = %d, want 1", run, n)
		}
	}

	// Metadata round-trips through process/thread names.
	if name := tr.ProcNames[PidFor(1, 0)]; name == "" {
		t.Fatal("run 1 node 0 process has no name")
	}
}

func TestReadTraceTruncated(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeSink(&buf)
	emitSample(sink)
	if err := sink.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	full, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace(full): %v", err)
	}

	// Cut the stream mid-record, as a killed producer would.
	cut := buf.Bytes()[:buf.Len()*3/5]
	tr, err := ReadTrace(bytes.NewReader(cut))
	if err != nil {
		t.Fatalf("ReadTrace(torn): %v", err)
	}
	if !tr.Truncated {
		t.Fatal("torn stream not reported truncated")
	}
	if tr.Records == 0 || tr.Records >= full.Records {
		t.Fatalf("torn Records = %d, want in (0, %d)", tr.Records, full.Records)
	}
}

func TestReadTraceUnbalanced(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeSink(&buf)
	sink.Emit(Event{Time: 1 * sim.Millisecond, Type: EvCollBegin, Node: 0, Track: 0, Name: "barrier"})
	if err := sink.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	tr, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if tr.Unbalanced != 1 {
		t.Fatalf("Unbalanced = %d, want 1 (open collective)", tr.Unbalanced)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader(`[1,2,3]`)); err == nil {
		t.Fatal("non-trace JSON accepted")
	}
}

// TestPidForUniqueAtScale pins the satellite requirement: pids stay
// collision-free at high run counts. The pre-int64 layout wrapped int32
// at run ≈ 2M; the widened layout must keep (run, node) → pid injective
// across the whole practical range and SplitPid must invert it.
func TestPidForUniqueAtScale(t *testing.T) {
	runs := []int32{0, 1, 2, 1023, 1024, 4095, 100_000, 2_100_000, 1 << 30}
	seen := map[int64]struct{}{}
	for _, run := range runs {
		for node := int32(-1); node < 64; node++ {
			pid := PidFor(run, node)
			if _, dup := seen[pid]; dup {
				t.Fatalf("pid collision at run=%d node=%d (pid %d)", run, node, pid)
			}
			seen[pid] = struct{}{}
			r, n := SplitPid(pid)
			if r != run || n != node {
				t.Fatalf("SplitPid(PidFor(%d,%d)) = (%d,%d)", run, node, r, n)
			}
		}
	}
	// Dense sweep over the first 4096 runs × full node range.
	for run := int32(0); run < 4096; run++ {
		for _, node := range []int32{-1, 0, 511, 1022} {
			pid := PidFor(run, node)
			if r, n := SplitPid(pid); r != run || n != node {
				t.Fatalf("SplitPid(PidFor(%d,%d)) = (%d,%d)", run, node, r, n)
			}
		}
	}
}

func TestTrackOfLayout(t *testing.T) {
	cases := []struct {
		node, tid int32
		kind      TrackKind
		index     int
	}{
		{-1, TidCells, TrackCells, 0},
		{-1, 2, TrackUnknown, 0}, // legacy dispatcher-decision track
		{0, TidCPU0, TrackCPU, 0},
		{0, TidCPU0 + 7, TrackCPU, 7},
		{0, TidRank0, TrackRank, 0},
		{0, TidRank0 + 15, TrackRank, 15},
		{0, TidNet, TrackNet, 0},
		{0, TidFault, TrackFault, 0},
		{0, TidProf, TrackProf, 0},
		{0, TidTransport, TrackTransport, 0},
		{0, TidTasks, TrackTasks, 0},
		{0, TidSMM, TrackSMM, 0},
		{-1, 999, TrackUnknown, 0},
		{0, 999, TrackUnknown, 0},
	}
	for _, c := range cases {
		kind, idx := TrackOf(c.node, c.tid)
		if kind != c.kind || idx != c.index {
			t.Errorf("TrackOf(%d, %d) = (%v, %d), want (%v, %d)",
				c.node, c.tid, kind, idx, c.kind, c.index)
		}
	}
}

func TestLog2Bounds(t *testing.T) {
	b := Log2Bounds(8, 1<<17)
	if len(b) == 0 || b[0] != 8 || b[len(b)-1] != 1<<17 {
		t.Fatalf("Log2Bounds(8, 2^17) = %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] != 2*b[i-1] {
			t.Fatalf("bounds not doubling at %d: %v", i, b)
		}
	}
	if got := Log2Bounds(0, 4); got[0] != 1 {
		t.Fatalf("Log2Bounds(0, 4) starts at %v, want 1", got[0])
	}
}
