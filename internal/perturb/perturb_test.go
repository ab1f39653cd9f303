package perturb

import (
	"testing"

	"smistudy/internal/sim"
)

// fakeStaller records stall/unstall calls without a real CPU model.
type fakeStaller struct {
	n     int
	depth map[int]int
}

func newFakeStaller(n int) *fakeStaller { return &fakeStaller{n: n, depth: map[int]int{}} }

func (f *fakeStaller) StallCPU(id int)   { f.depth[id]++ }
func (f *fakeStaller) UnstallCPU(id int) { f.depth[id]-- }
func (f *fakeStaller) NumLogical() int   { return f.n }

func TestDeriveSeedDistinctAndStable(t *testing.T) {
	seen := map[int64]bool{}
	for salt := uint64(0); salt < 64; salt++ {
		s := DeriveSeed(7, salt)
		if seen[s] {
			t.Fatalf("salt %d collides", salt)
		}
		seen[s] = true
		if s != DeriveSeed(7, salt) {
			t.Fatalf("salt %d not stable", salt)
		}
	}
	if DeriveSeed(7, 0) == DeriveSeed(8, 0) {
		t.Fatalf("base seeds 7 and 8 collide at salt 0")
	}
}

func TestJitterConfigValidate(t *testing.T) {
	ms := sim.Millisecond
	us := sim.Microsecond
	bad := []JitterConfig{
		{},
		{Period: 10 * ms},
		{Period: 10 * ms, Duration: 10 * ms},
		{Period: 10 * ms, Duration: 20 * ms},
		{Period: 10 * ms, Duration: 100 * us, Jitter: -0.1},
		{Period: 10 * ms, Duration: 100 * us, Jitter: 1},
		{Period: 10 * ms, Duration: 100 * us, CPUs: []int{-1}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
	good := JitterConfig{Period: 10 * ms, Duration: 100 * us, Jitter: 0.3, CPUs: []int{0, 3}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestJitterRejectsOutOfRangeCPU(t *testing.T) {
	e := sim.New(1)
	cfg := JitterConfig{Period: 10 * sim.Millisecond, Duration: 100 * sim.Microsecond, CPUs: []int{5}}
	if _, err := NewJitter(e, newFakeStaller(4), cfg); err == nil {
		t.Fatalf("NewJitter accepted CPU 5 on a 4-logical machine")
	}
}

// runJitter drives a jitter source for the given horizon and returns it.
func runJitter(t *testing.T, seed int64, horizon sim.Time, cpus []int) *Jitter {
	t.Helper()
	e := sim.New(1)
	st := newFakeStaller(4)
	j, err := NewJitter(e, st, JitterConfig{
		Period:   10 * sim.Millisecond,
		Duration: 200 * sim.Microsecond,
		Jitter:   0.25,
		Seed:     seed,
		CPUs:     cpus,
	})
	if err != nil {
		t.Fatalf("NewJitter: %v", err)
	}
	j.Start()
	// Stop the source at the horizon but let the engine drain: an
	// in-flight steal completes (and unstalls its CPU) past the edge.
	e.After(horizon, func() { j.Stop() })
	e.After(horizon+20*sim.Millisecond, func() { e.Stop() })
	e.Run()
	for id, d := range st.depth {
		if d != 0 {
			t.Fatalf("cpu %d left at stall depth %d", id, d)
		}
	}
	return j
}

func TestJitterReplayDeterminism(t *testing.T) {
	a := runJitter(t, 42, sim.Second, nil)
	b := runJitter(t, 42, sim.Second, nil)
	ea, eb := a.Episodes(), b.Episodes()
	if len(ea) == 0 {
		t.Fatalf("no episodes after 1 s of 10 ms ticks")
	}
	if len(ea) != len(eb) {
		t.Fatalf("replay produced %d episodes vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("episode %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	if a.Stolen() != b.Stolen() {
		t.Fatalf("stolen differs: %v vs %v", a.Stolen(), b.Stolen())
	}
	c := runJitter(t, 43, sim.Second, nil)
	if len(c.Episodes()) == len(ea) && c.Episodes()[0] == ea[0] {
		t.Fatalf("different seeds produced identical schedules")
	}
}

// TestJitterLogSpansChunks: a run long enough to fill several chunks of
// the episode log still returns every steal once, in completion order.
func TestJitterLogSpansChunks(t *testing.T) {
	j := runJitter(t, 5, 8*sim.Second, nil)
	eps := j.Episodes()
	if len(eps) <= 2*episodeChunk {
		t.Fatalf("%d episodes, want more than two chunks of %d", len(eps), episodeChunk)
	}
	var stolen sim.Time
	for i, ep := range eps {
		if i > 0 && ep.Start+ep.Duration < eps[i-1].Start+eps[i-1].Duration {
			t.Fatalf("episode %d ends before episode %d", i, i-1)
		}
		stolen += ep.Duration
	}
	if stolen != j.Stolen() {
		t.Fatalf("Stolen() = %v, episode sum = %v", j.Stolen(), stolen)
	}
}

func TestJitterEpisodeBounds(t *testing.T) {
	j := runJitter(t, 1, sim.Second, []int{0, 2})
	period, dur, frac := 10*sim.Millisecond, 200*sim.Microsecond, 0.25
	minDur := sim.Time(float64(dur) * (1 - frac))
	maxDur := sim.Time(float64(dur)*(1+frac)) + 1
	perCPU := map[int]int{}
	for _, ep := range j.Episodes() {
		if ep.CPU != 0 && ep.CPU != 2 {
			t.Fatalf("episode on unexpected CPU %d", ep.CPU)
		}
		perCPU[ep.CPU]++
		if ep.Duration < minDur || ep.Duration > maxDur {
			t.Fatalf("episode duration %v outside [%v, %v]", ep.Duration, minDur, maxDur)
		}
	}
	// ~100 ticks/CPU over 1 s at a 10 ms period; jitter keeps it close.
	for _, cpu := range []int{0, 2} {
		n := perCPU[cpu]
		if n < 80 || n > 120 {
			t.Fatalf("cpu %d saw %d episodes over 1 s at period %v", cpu, n, period)
		}
	}
	var stolen sim.Time
	for _, ep := range j.Episodes() {
		stolen += ep.Duration
	}
	if stolen != j.Stolen() {
		t.Fatalf("Stolen() = %v, episode sum = %v", j.Stolen(), stolen)
	}
}

func TestJitterStopCancelsFutureTicks(t *testing.T) {
	e := sim.New(1)
	st := newFakeStaller(2)
	j, err := NewJitter(e, st, JitterConfig{
		Period: 10 * sim.Millisecond, Duration: 200 * sim.Microsecond,
	})
	if err != nil {
		t.Fatalf("NewJitter: %v", err)
	}
	j.Start()
	if !j.Running() {
		t.Fatalf("not running after Start")
	}
	e.After(100*sim.Millisecond, func() { j.Stop() })
	e.After(sim.Second, func() { e.Stop() })
	e.Run()
	if j.Running() {
		t.Fatalf("still running after Stop")
	}
	for _, ep := range j.Episodes() {
		// In-flight steals may complete just past the stop edge, but no
		// new tick may start after it.
		if ep.Start > 100*sim.Millisecond {
			t.Fatalf("episode started at %v, after Stop at 100 ms", ep.Start)
		}
	}
	for id, d := range st.depth {
		if d != 0 {
			t.Fatalf("cpu %d left at stall depth %d", id, d)
		}
	}
}

func TestMetaAndScopeStrings(t *testing.T) {
	e := sim.New(1)
	j, err := NewJitter(e, newFakeStaller(2), JitterConfig{
		Period: 10 * sim.Millisecond, Duration: 200 * sim.Microsecond,
	})
	if err != nil {
		t.Fatalf("NewJitter: %v", err)
	}
	m := j.Meta()
	if m.Family != JitterFamily || m.Scope != ScopeCore || !m.Visible {
		t.Fatalf("jitter meta = %+v", m)
	}
	for s, want := range map[Scope]string{ScopeCore: "core", ScopeSocket: "socket", ScopeGlobal: "global"} {
		if s.String() != want {
			t.Errorf("Scope(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

// TestJitterTickAllocFree: each stream builds its tick and steal-end
// callbacks once, so a tick, its steal and the re-arm allocate nothing
// (the episode log grows by whole chunks, one per 1024 steals).
func TestJitterTickAllocFree(t *testing.T) {
	e := sim.New(1)
	j, err := NewJitter(e, newFakeStaller(2), JitterConfig{
		Period: 10 * sim.Millisecond, Duration: 200 * sim.Microsecond, Jitter: 0.2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Start()
	period := func() { e.RunUntil(e.Now() + 10*sim.Millisecond) }
	period()
	if got := testing.AllocsPerRun(200, period); got != 0 {
		t.Fatalf("a period of jitter ticks allocates %.1f allocs/op, want 0", got)
	}
	if n := len(j.Episodes()); n < 200 {
		t.Fatalf("%d steals completed, want at least one per measured period", n)
	}
}

// TestJitterRestartMidSteal: a Stop and Start while a steal is in
// flight must not arm a second tick chain on that CPU. With a strictly
// periodic 10 ms gap and 2 ms steals, one CPU steals 83 times in the
// first second either way, and no two steals overlap.
func TestJitterRestartMidSteal(t *testing.T) {
	e := sim.New(1)
	j, err := NewJitter(e, newFakeStaller(1), JitterConfig{
		Period: 10 * sim.Millisecond, Duration: 2 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	j.Start()
	e.At(11*sim.Millisecond, func() { // inside the first steal, 10–12 ms
		j.Stop()
		j.Start()
	})
	e.RunUntil(sim.Second)
	eps := j.Episodes()
	if len(eps) != 83 {
		t.Fatalf("%d steals in the first second, want 83", len(eps))
	}
	for i, ep := range eps {
		if want := sim.Time(i)*12*sim.Millisecond + 10*sim.Millisecond; ep.Start != want {
			t.Fatalf("steal %d starts at %v, want %v", i, ep.Start, want)
		}
		if ep.Duration != 2*sim.Millisecond {
			t.Fatalf("steal %d lasts %v, want 2ms", i, ep.Duration)
		}
	}
}
