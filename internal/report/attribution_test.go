package report

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"smistudy/internal/obs"
	"smistudy/internal/sim"
)

// syntheticTrace builds a one-run, one-node, one-CPU trace with known
// geometry:
//
//	wall                [0, 100ms]
//	on-CPU              [10, 60]          (run @10, preempt @60)
//	SMM residency       [30, 50]          (inside the busy window)
//	retransmission      @70               (inside the idle tail)
//
// giving the exact partition compute 30ms, smm-stolen 20ms,
// fault-retransmit 40ms (idle [60,100] is marked), comm-wait 10ms
// (idle [0,10] is not).
func syntheticTrace(t *testing.T) *obs.Trace {
	t.Helper()
	tr, err := obs.ReadTrace(bytes.NewReader(syntheticTraceBytes(t)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// syntheticTraceBytes is syntheticTrace's encoded Chrome document.
func syntheticTraceBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewChromeSink(&buf)
	ms := sim.Millisecond
	for _, ev := range []obs.Event{
		{Time: 0, Type: obs.EvSweepCellStart, Node: -1, Track: -1},
		{Time: 1 * ms, Type: obs.EvTaskSpawn, Node: 0, Track: -1, A: 7, Name: "rank0"},
		{Time: 5 * ms, Type: obs.EvMPISend, Node: 0, Track: 0, A: 1, B: 2048},
		{Time: 10 * ms, Type: obs.EvSchedRun, Node: 0, Track: 0, A: 7},
		{Time: 50 * ms, Dur: 20 * ms, Type: obs.EvSMMExit, Node: 0, Track: -1},
		{Time: 60 * ms, Type: obs.EvSchedPreempt, Node: 0, Track: 0, A: 7},
		{Time: 70 * ms, Type: obs.EvMPIRetransmit, Node: 0, A: 1, B: 2048},
		{Time: 100 * ms, Dur: 100 * ms, Type: obs.EvSweepCellFinish, Node: -1, Track: -1},
	} {
		sink.Emit(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func secsOf(t *testing.T, cpu *Node, cat string) float64 {
	t.Helper()
	for _, c := range cpu.Children {
		if c.Label == cat {
			return c.Seconds
		}
	}
	return 0
}

func TestAttributeExactPartition(t *testing.T) {
	tr := syntheticTrace(t)
	runs := Attribute(tr)
	if len(runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs))
	}
	ra := runs[0]
	if ra.WallSeconds != 0.1 {
		t.Fatalf("wall = %v, want 0.1", ra.WallSeconds)
	}
	cpu := ra.Tree.Find("node0", "cpu0 · rank0")
	if cpu == nil {
		t.Fatalf("cpu vertex missing; tree: %+v", ra.Tree.Children)
	}
	want := map[string]float64{
		CatCompute:    0.030,
		CatSMMStolen:  0.020,
		CatRetransmit: 0.040,
		CatCommWait:   0.010,
	}
	var sum float64
	for cat, w := range want {
		got := secsOf(t, cpu, cat)
		if math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %.6f s, want %.6f s", cat, got, w)
		}
		sum += got
	}
	if math.Abs(sum-ra.WallSeconds) > 1e-9 {
		t.Errorf("categories sum to %.6f s, wall is %.6f s", sum, ra.WallSeconds)
	}
	if got := secsOf(t, cpu, CatIdle); got != 0 {
		t.Errorf("MPI node charged %v s of plain idle, want comm-wait", got)
	}
	if v := ra.Tree.Check(0.01); len(v) != 0 {
		t.Errorf("synthetic tree violates invariants: %+v", v)
	}
	if len(ra.Ranks) != 1 || ra.Ranks[0].Sends != 1 || ra.Ranks[0].SendBytes != 2048 {
		t.Errorf("rank stats = %+v, want one rank with one 2048 B send", ra.Ranks)
	}
}

// TestAttributeLegacyFastPathInstants: traces written while the
// simulator had an analytic fast path carry dispatcher decisions as
// instants on cluster tid 2. They must read as an unknown track and
// leave the attribution exactly as it is without them.
func TestAttributeLegacyFastPathInstants(t *testing.T) {
	clean := syntheticTraceBytes(t)
	legacy := `{"name":"thread_name","ph":"M","pid":0,"tid":2,"args":{"name":"fastpath"}},
{"name":"fastpath_miss smm","cat":"sweep","ph":"i","s":"t","ts":0.000,"pid":0,"tid":2,"args":{"a":0,"b":0}},
{"name":"fastpath_certify certified","cat":"sweep","ph":"i","s":"t","ts":0.000,"pid":0,"tid":2,"args":{"a":1200,"b":50000}},
{"name":"fastpath_hit replicate","cat":"sweep","ph":"i","s":"t","ts":0.000,"pid":0,"tid":2,"args":{"a":1200,"b":50000}},
`
	head := []byte("{\"traceEvents\":[\n")
	if !bytes.HasPrefix(clean, head) {
		t.Fatalf("unexpected trace header: %.40q", clean)
	}
	data := append(append(append([]byte(nil), head...), legacy...), clean[len(head):]...)
	tr, err := obs.ReadTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("legacy trace failed to read: %v", err)
	}
	var decisions int
	for _, s := range tr.Spans {
		if strings.HasPrefix(s.Name, "fastpath_") {
			decisions++
			if s.Kind != obs.TrackUnknown {
				t.Errorf("%q classified as %v, want unknown", s.Name, s.Kind)
			}
		}
	}
	if decisions != 3 {
		t.Fatalf("read %d legacy decision instants, want 3", decisions)
	}
	runs := Attribute(tr)
	if len(runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs))
	}
	if v := runs[0].Tree.Check(0.01); len(v) != 0 {
		t.Errorf("legacy fast-path instants broke the invariants: %+v", v)
	}
	want, err := json.Marshal(Attribute(syntheticTrace(t))[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(runs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("legacy instants changed the attribution:\n got %s\nwant %s", got, want)
	}
}

// TestAttributeSMMDuringIdle pins the double-counting rule: SMM time
// overlapping an idle window is charged to smm-stolen, not also to
// comm-wait.
func TestAttributeSMMDuringIdle(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewChromeSink(&buf)
	ms := sim.Millisecond
	for _, ev := range []obs.Event{
		{Time: 10 * ms, Type: obs.EvSchedRun, Node: 0, Track: 0, A: 1},
		{Time: 20 * ms, Type: obs.EvSchedPreempt, Node: 0, Track: 0, A: 1},
		// SMM [40, 70] lies entirely in the idle tail.
		{Time: 70 * ms, Dur: 30 * ms, Type: obs.EvSMMExit, Node: 0, Track: -1},
		{Time: 100 * ms, Dur: 100 * ms, Type: obs.EvSweepCellFinish, Node: -1, Track: -1},
	} {
		sink.Emit(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ra := Attribute(tr)[0]
	cpu := ra.Tree.Find("node0", "cpu0")
	if cpu == nil {
		t.Fatalf("cpu vertex missing")
	}
	if got := secsOf(t, cpu, CatSMMStolen); math.Abs(got-0.030) > 1e-9 {
		t.Errorf("smm-stolen = %v, want 0.030 (idle-time SMM still stolen)", got)
	}
	// No rank track on this node → the plain wait is idle, and it
	// excludes the SMM window: 100 − 10 busy − 30 smm = 60 ms.
	if got := secsOf(t, cpu, CatIdle); math.Abs(got-0.060) > 1e-9 {
		t.Errorf("idle = %v, want 0.060", got)
	}
	if v := ra.Tree.Check(0.01); len(v) != 0 {
		t.Errorf("violations: %+v", v)
	}
}

// TestAttributeMigrateSwap pins migrate routing: the trace records a
// migrate once, on the destination CPU with the source in B, and the
// attribution must close the thread's span on the source. Two threads
// swap CPUs at one instant, then T1 moves back, leaving cpu1 idle with
// no preempt edge of its own:
//
//	cpu0  T1 [10,40]  T2 [40,50]  T1 [60,90]   → compute 70 ms
//	cpu1  T2 [10,40]  T1 [40,60]               → compute 50 ms
func TestAttributeMigrateSwap(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewChromeSink(&buf)
	ms := sim.Millisecond
	for _, ev := range []obs.Event{
		{Time: 10 * ms, Type: obs.EvSchedRun, Node: 0, Track: 0, A: 1},
		{Time: 10 * ms, Type: obs.EvSchedRun, Node: 0, Track: 1, A: 2},
		{Time: 40 * ms, Type: obs.EvSchedMigrate, Node: 0, Track: 1, A: 1, B: 0},
		{Time: 40 * ms, Type: obs.EvSchedMigrate, Node: 0, Track: 0, A: 2, B: 1},
		{Time: 50 * ms, Type: obs.EvSchedPreempt, Node: 0, Track: 0, A: 2},
		{Time: 60 * ms, Type: obs.EvSchedMigrate, Node: 0, Track: 0, A: 1, B: 1},
		{Time: 90 * ms, Type: obs.EvSchedPreempt, Node: 0, Track: 0, A: 1},
		{Time: 100 * ms, Dur: 100 * ms, Type: obs.EvSweepCellFinish, Node: -1, Track: -1},
	} {
		sink.Emit(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ra := Attribute(tr)[0]
	for cpu, want := range map[string]float64{"cpu0": 0.070, "cpu1": 0.050} {
		n := ra.Tree.Find("node0", cpu)
		if n == nil {
			t.Fatalf("%s vertex missing", cpu)
		}
		if got := secsOf(t, n, CatCompute); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s compute = %.6f s, want %.6f s", cpu, got, want)
		}
	}
	if v := ra.Tree.Check(0.01); len(v) != 0 {
		t.Errorf("violations: %+v", v)
	}
}

func TestCheckCatchesBrokenTrees(t *testing.T) {
	// Category children that do not sum to the parent.
	bad := &Node{Label: "cpu0", Kind: "cpu", Seconds: 1.0, Children: []*Node{
		{Label: CatCompute, Kind: "category", Seconds: 0.4},
		{Label: CatCommWait, Kind: "category", Seconds: 0.3},
	}}
	if v := bad.Check(0.01); len(v) == 0 {
		t.Error("0.7 of 1.0 accounted and Check found nothing")
	}
	// Negative time.
	neg := &Node{Label: "x", Kind: "category", Seconds: -0.1}
	if v := neg.Check(0.01); len(v) == 0 {
		t.Error("negative seconds passed Check")
	}
	// Parallel child that does not cover its parent.
	par := &Node{Label: "run0", Kind: "run", Seconds: 1.0, Parallel: true, Children: []*Node{
		{Label: "node0", Kind: "node", Seconds: 0.5},
	}}
	if v := par.Check(0.01); len(v) == 0 {
		t.Error("parallel child covering half the parent passed Check")
	}
	// Recorded anomalies surface as violations.
	anom := &Node{Label: "cpu0", Kind: "cpu", Seconds: 1.0,
		Anomalies: []string{"3 unmatched preempt edges"}}
	if v := anom.Check(0.01); len(v) != 1 || !strings.Contains(v[0].Detail, "unmatched") {
		t.Errorf("anomaly not surfaced: %+v", v)
	}
	// Tolerance is honored: 0.5% off passes at 1%.
	close := &Node{Label: "cpu0", Kind: "cpu", Seconds: 1.0, Children: []*Node{
		{Label: CatCompute, Kind: "category", Seconds: 0.995},
	}}
	if v := close.Check(0.01); len(v) != 0 {
		t.Errorf("0.5%% residue failed a 1%% tolerance: %+v", v)
	}
}

func TestAggregateMeansRuns(t *testing.T) {
	mk := func(compute float64) RunAttribution {
		return RunAttribution{Run: 0, WallSeconds: 1, Tree: &Node{
			Label: "run0", Kind: "run", Seconds: 1, Parallel: true, Children: []*Node{
				{Label: "node0", Kind: "node", Seconds: 1, Parallel: true, Children: []*Node{
					{Label: "cpu0", Kind: "cpu", Seconds: 1, Children: []*Node{
						{Label: CatCompute, Kind: "category", Seconds: compute},
						{Label: CatCommWait, Kind: "category", Seconds: 1 - compute},
					}},
				}},
			},
		}}
	}
	agg := Aggregate([]RunAttribution{mk(0.2), mk(0.6)})
	got := agg.Find("node0", "cpu0", CatCompute)
	if got == nil || math.Abs(got.Seconds-0.4) > 1e-12 {
		t.Fatalf("aggregate compute = %+v, want 0.4", got)
	}
	if cat, wallTot := agg.CategoryTotal(CatCompute); math.Abs(cat-0.4) > 1e-12 || wallTot != 1 {
		t.Fatalf("CategoryTotal = (%v, %v), want (0.4, 1)", cat, wallTot)
	}
	if Aggregate(nil) != nil {
		t.Fatal("Aggregate(nil) != nil")
	}
}

func TestRenderFlame(t *testing.T) {
	tr := syntheticTrace(t)
	fl := RenderFlame(tr, 0, FlameOptions{})
	if fl.Tracks == 0 || fl.Elements == 0 {
		t.Fatalf("empty rendering: %+v", fl)
	}
	for _, want := range []string{"<svg", "n0/", "cluster/", "</svg>"} {
		if !strings.Contains(fl.SVG, want) {
			t.Errorf("SVG lacks %q", want)
		}
	}
	// The element budget drops spans and says so.
	tiny := RenderFlame(tr, 0, FlameOptions{MaxElements: 2})
	if tiny.Dropped == 0 {
		t.Error("2-element budget dropped nothing")
	}
	if tiny.Elements > 2 {
		t.Errorf("budget of 2 rendered %d elements", tiny.Elements)
	}
}
