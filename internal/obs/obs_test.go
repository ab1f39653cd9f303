package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"testing"

	"smistudy/internal/sim"
)

func TestRingSink(t *testing.T) {
	r := NewRingSink(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Time: sim.Time(i), Type: EvSMMEnter})
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d, want 10", r.Total())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Time != sim.Time(6+i) {
			t.Fatalf("event %d has time %d, want %d (oldest-first order)", i, ev.Time, 6+i)
		}
	}
}

func TestRingFilter(t *testing.T) {
	r := NewRingSink(8)
	r.Emit(Event{Type: EvSMMExit})
	r.Emit(Event{Type: EvMPISend})
	r.Emit(Event{Type: EvSMMEnter})
	if got := len(r.Filter(CatSMM)); got != 2 {
		t.Fatalf("smm events = %d, want 2", got)
	}
}

func TestFilterSink(t *testing.T) {
	inner := NewRingSink(8)
	f := FilterSink{Cat: CatSMM, Sink: inner}
	f.Emit(Event{Type: EvSMMExit})
	f.Emit(Event{Type: EvMPISend})
	f.Emit(Event{Type: EvSchedRun})
	if inner.Total() != 1 || inner.Events()[0].Type != EvSMMExit {
		t.Fatalf("filter passed wrong events: %+v", inner.Events())
	}
}

func TestTypeTaxonomy(t *testing.T) {
	// Every event type must have a name and a category; the five
	// categories the acceptance criteria name must all be reachable.
	seen := map[Category]bool{}
	for ty := EvSMMEnter; ty < numTypes; ty++ {
		if ty.String() == "" || ty.String() == "unknown" {
			t.Errorf("type %d has no name", ty)
		}
		if ty.Category() == CatNone {
			t.Errorf("type %v has no category", ty)
		}
		seen[ty.Category()] = true
	}
	for _, c := range []Category{CatSMM, CatSched, CatMPI, CatNet, CatFault} {
		if !seen[c] {
			t.Errorf("category %v unreachable from any event type", c)
		}
	}
}

func TestRegistrySnapshotDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b", 1).Add(2)
	reg.Counter("a", 3).Add(1)
	reg.Counter("a", 0).Add(5)
	reg.Gauge("g", 0).Set(7)
	h := reg.Histogram("h", 2, []float64{1, 10})
	h.Observe(0.5)
	h.Observe(1) // on-bound observation belongs to the next bucket
	h.Observe(99)

	s := reg.Snapshot()
	if len(s.Counters) != 3 || s.Counters[0].Name != "a" || s.Counters[0].ID != 0 {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if s.Counter("a", 3) != 1 || s.Counter("missing", 0) != 0 {
		t.Fatal("counter lookup wrong")
	}
	hs := s.Histograms[0]
	if hs.N != 3 || hs.Counts[0] != 1 || hs.Counts[1] != 1 || hs.Counts[2] != 1 {
		t.Fatalf("histogram buckets: %+v", hs)
	}
	if hs.Max != 99 || !near(hs.Mean(), (0.5+1+99)/3) {
		t.Fatalf("histogram stats: max=%v mean=%v", hs.Max, hs.Mean())
	}

	j1, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := reg.Snapshot().JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatal("snapshot JSON not byte-stable")
	}
}

func near(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }

func TestBusDerivesMetrics(t *testing.T) {
	b := NewBus()
	ring := NewRingSink(16)
	b.Attach(ring)
	b.Emit(Event{Time: 10 * sim.Millisecond, Dur: 2 * sim.Millisecond, Type: EvSMMExit, Node: 1})
	b.Emit(Event{Type: EvMPIRetransmit, Node: 0})
	b.Emit(Event{Type: EvNetDrop, Node: 0})
	b.EngineEvent(sim.ProbeSchedule)
	b.EngineEvent(sim.ProbeFire)

	s := b.MetricsSnapshot()
	if s.Counter("smm_episodes", 1) != 1 {
		t.Fatal("smm episode not counted")
	}
	if s.Counter("mpi_retransmits", 0) != 1 || s.Counter("net_drops", 0) != 1 {
		t.Fatal("transport counters wrong")
	}
	if s.Counter("engine_events_scheduled", -1) != 1 || s.Counter("engine_events_fired", -1) != 1 {
		t.Fatal("engine probe counters wrong")
	}
	if ring.Total() != 3 {
		t.Fatalf("sink saw %d events, want 3", ring.Total())
	}
}

func TestWithRun(t *testing.T) {
	ring := NewRingSink(4)
	tr := WithRun(ring, 7)
	tr.Emit(Event{Type: EvSweepCellStart})
	if got := ring.Events()[0].Run; got != 7 {
		t.Fatalf("run = %d, want 7", got)
	}
	if WithRun(nil, 3) != nil {
		t.Fatal("WithRun(nil) must stay nil (the untraced path pays nothing)")
	}
}

// chromeDoc parses a sink's output for structural assertions.
type chromeDoc struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	} `json:"traceEvents"`
}

func TestChromeSinkValidity(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeSink(&buf)
	// One event from every category, two runs to exercise the pid split.
	events := []Event{
		{Time: 1 * sim.Millisecond, Type: EvSchedRun, Node: 0, Track: 2, A: 1, Name: "worker"},
		{Time: 2 * sim.Millisecond, Dur: sim.Millisecond, Type: EvSMMExit, Node: 0, Track: -1},
		{Time: 3 * sim.Millisecond, Type: EvMPISend, Node: 0, Track: 0, A: 1, B: 64},
		{Time: 3 * sim.Millisecond, Type: EvCollBegin, Node: 0, Track: 0, Name: "barrier"},
		{Time: 4 * sim.Millisecond, Type: EvCollEnd, Node: 0, Track: 0, Name: "barrier"},
		{Time: 4 * sim.Millisecond, Type: EvNetDrop, Node: 0, Track: -1, A: 1, B: 64},
		{Time: 5 * sim.Millisecond, Type: EvFaultStart, Node: -1, Track: -1, A: 0, B: 1, Name: "loss"},
		{Time: 6 * sim.Millisecond, Type: EvProfDrop, Node: 0, Track: -1},
		{Time: 7 * sim.Millisecond, Dur: 7 * sim.Millisecond, Type: EvSweepCellFinish, Run: 1, Node: -1, A: 99},
		{Time: 8 * sim.Millisecond, Dur: 2 * sim.Millisecond, Type: EvUserSpan, Node: 0, Track: 5, Name: "task \"x\""},
	}
	for _, ev := range events {
		sink.Emit(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !json.Valid(out) {
		t.Fatalf("sink output is not valid JSON:\n%s", out)
	}
	var doc chromeDoc
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	// Every non-metadata event must land on a named process and thread,
	// and ts must be monotone per (pid, tid) track.
	named := map[[2]int]bool{}
	lastTS := map[[2]int]float64{}
	for _, ev := range doc.TraceEvents {
		key := [2]int{ev.PID, ev.TID}
		if ev.Ph == "M" {
			named[key] = true
			if ev.Name == "process_name" {
				named[[2]int{ev.PID, 0}] = true
			}
			continue
		}
		if !named[[2]int{ev.PID, 0}] || !named[key] {
			t.Errorf("event %q on unnamed track pid=%d tid=%d", ev.Name, ev.PID, ev.TID)
		}
		if last, ok := lastTS[key]; ok && ev.TS < last {
			t.Errorf("ts regressed on pid=%d tid=%d: %v after %v", ev.PID, ev.TID, ev.TS, last)
		}
		lastTS[key] = ev.TS
	}
	// Runs must occupy disjoint pid namespaces.
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		pids[ev.PID] = true
	}
	if !pids[1] { // run 0, node 0
		t.Error("node process missing")
	}
	if !pids[1024] { // run 1, cluster
		t.Error("run-1 cluster process missing")
	}
}

func TestChromeSinkEmpty(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeSink(&buf)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("empty trace invalid: %s", buf.Bytes())
	}
}

func TestManifestRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("smisim", flag.ContinueOnError)
	fs.String("workload", "nas", "")
	fs.Int("nodes", 4, "")
	fs.String("trace", "", "")
	if err := fs.Parse([]string{"-nodes", "8", "-trace", "out.json"}); err != nil {
		t.Fatal(err)
	}
	m := Capture("smisim", fs, "trace")
	if _, ok := m.Flags["trace"]; ok {
		t.Fatal("output flag leaked into the manifest")
	}
	if m.Flags["nodes"] != "8" || m.Flags["workload"] != "nas" {
		t.Fatalf("flags = %v", m.Flags)
	}

	j1, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := LoadManifest(j1)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := m2.JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatalf("round trip not byte-identical:\n%s\n%s", j1, j2)
	}

	// Replay: manifest values apply, explicit command-line values win.
	fs2 := flag.NewFlagSet("smisim", flag.ContinueOnError)
	fs2.String("workload", "nas", "")
	fs2.Int("nodes", 4, "")
	fs2.String("trace", "", "")
	if err := fs2.Parse([]string{"-workload", "convolve"}); err != nil {
		t.Fatal(err)
	}
	if err := m2.Apply(fs2, ExplicitFlags(fs2)); err != nil {
		t.Fatal(err)
	}
	if fs2.Lookup("nodes").Value.String() != "8" {
		t.Fatal("manifest value did not apply")
	}
	if fs2.Lookup("workload").Value.String() != "convolve" {
		t.Fatal("explicit flag lost to the manifest")
	}
}

func TestManifestUnknownFlagIgnored(t *testing.T) {
	m := Manifest{Flags: map[string]string{"gone": "1"}}
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(fs, ExplicitFlags(fs)); err != nil {
		t.Fatalf("unknown manifest flag should be skipped, got %v", err)
	}
}
