// Package experiments regenerates every table and figure in the paper's
// evaluation: Tables 1–3 (BT/EP/FT under no/short/long SMM), Tables 4–5
// (the HTT effect on EP/FT), Figure 1 (Convolve vs SMI interval and CPU
// configuration) and Figure 2 (UnixBench score vs SMI interval). Each
// generator returns structured data plus renderers that print the same
// rows and series the paper reports.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"smistudy"
	"smistudy/internal/durable"
	"smistudy/internal/metrics"
	"smistudy/internal/parsweep"
	"smistudy/internal/runner"
	"smistudy/internal/scenario"
)

// Config scopes a regeneration run.
type Config struct {
	// Runs per cell (the paper averages six MPI runs, three Convolve
	// runs). Zero selects the paper's counts.
	Runs int
	// Seed bases the deterministic seeds.
	Seed int64
	// Quick shrinks grids (class A only, fewer sweep points) for smoke
	// tests and benchmarks.
	Quick bool
	// Workers fans the sweep's independent cells over this many OS
	// threads (each cell builds its own simulation engine, so any
	// worker count produces byte-identical output). ≤ 1 runs
	// sequentially; the CLIs resolve their -parallel flag to all CPUs
	// before it reaches here.
	Workers int
	// SMIScale multiplies every injected SMI's duration range when > 0
	// and ≠ 1. The fidelity harness uses it as a deliberate physics
	// perturbation to prove its tolerance gates trip; zero reproduces
	// the paper's calibrated durations byte-for-byte.
	SMIScale float64
	// Tracer, when non-nil, is threaded into every cell of every sweep
	// so one bus observes the whole experiment; cells stamp their
	// events with per-run indices. Must be concurrency-safe (an
	// *obs.Bus is) when Workers > 1.
	Tracer smistudy.Tracer
	// Ctx cancels the run: a canceled context stops claiming new sweep
	// cells and the generators return the context error. Nil means
	// context.Background().
	Ctx context.Context
	// Store, when non-nil, checkpoints every finished sweep cell of the
	// table/figure generators so a killed regeneration resumes instead
	// of restarting (see internal/durable).
	Store *durable.Store
	// Resume permits replaying store-cached cells byte-identically.
	Resume bool
	// CellTimeout bounds each durable cell's wall-clock time (0 = none).
	CellTimeout time.Duration
	// Retries re-runs transiently-failed cells with exponential backoff.
	Retries int
	// Stats, when non-nil, accumulates execution accounting across every
	// cell of every sweep: cells run, simulated runs and engine events.
	Stats *runner.ExecStats
}

// ctx resolves the run's context.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// durableOptions lowers the Config's robustness knobs for the durable
// sweep layer.
func (c Config) durableOptions() durable.Options {
	return durable.Options{
		Store:       c.Store,
		Resume:      c.Resume,
		Workers:     c.Workers,
		CellTimeout: c.CellTimeout,
		Retry:       durable.Policy{MaxRetries: c.Retries},
		Tracer:      c.Tracer,
		Stats:       c.Stats,
	}
}

func (c Config) runs(def int) int {
	if c.Runs > 0 {
		return c.Runs
	}
	if c.Quick {
		return 1
	}
	return def
}

func (c Config) seed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 1
}

// Triple holds one cell's three SMM levels, in seconds.
type Triple struct {
	SMM0, SMM1, SMM2 float64
}

// DeltaShort reports SMM1−SMM0.
func (t Triple) DeltaShort() float64 { return t.SMM1 - t.SMM0 }

// PctShort reports the short-SMM percent change.
func (t Triple) PctShort() float64 { return metrics.PercentChange(t.SMM0, t.SMM1) }

// DeltaLong reports SMM2−SMM0.
func (t Triple) DeltaLong() float64 { return t.SMM2 - t.SMM0 }

// PctLong reports the long-SMM percent change.
func (t Triple) PctLong() float64 { return metrics.PercentChange(t.SMM0, t.SMM2) }

// NASRow is one (class, node-count) row of Tables 1–3.
type NASRow struct {
	Class smistudy.Class
	Nodes int
	// One and Four are the 1-rank-per-node and 4-ranks-per-node halves;
	// a nil half was not measured (the paper leaves FT.C × {1,2} nodes
	// × 1 rank blank).
	One, Four *Triple
}

// NASTable is a regenerated Table 1, 2 or 3.
type NASTable struct {
	Number int
	Title  string
	Bench  smistudy.Benchmark
	Rows   []NASRow
}

// nasCellPoint is one independent sweep unit of the MPI tables: a
// single (benchmark, class, nodes, ranks/node, HTT, SMM level)
// configuration. Tables flatten their grids into these points, fan them
// over cfg.Workers with parsweep, and reassemble rows in input order —
// so the rendered output is byte-identical to the nested sequential
// loops this replaces.
type nasCellPoint struct {
	bench smistudy.Benchmark
	class smistudy.Class
	nodes int
	rpn   int
	htt   bool
	level smistudy.SMMLevel
}

// levels expands one table cell into its three SMM-level points.
func levels(b smistudy.Benchmark, cl smistudy.Class, nodes, rpn int, htt bool) []nasCellPoint {
	pts := make([]nasCellPoint, 0, 3)
	for _, lv := range []smistudy.SMMLevel{smistudy.SMM0, smistudy.SMM1, smistudy.SMM2} {
		pts = append(pts, nasCellPoint{bench: b, class: cl, nodes: nodes, rpn: rpn, htt: htt, level: lv})
	}
	return pts
}

// levelName maps an injection level to its scenario spelling.
func levelName(lv smistudy.SMMLevel) string {
	switch lv {
	case smistudy.SMM1:
		return "short"
	case smistudy.SMM2:
		return "long"
	default:
		return "none"
	}
}

// runNASCells measures every point through the durable sweep layer —
// per-cell isolation, optional checkpoint/resume — returning each
// point's mean runtime in seconds in input order. The declarative specs
// lower onto exactly the typed RunNAS call this replaces, so the output
// is byte-identical with or without a store, for any worker count.
func runNASCells(cfg Config, pts []nasCellPoint) ([]float64, error) {
	specs := make([]scenario.Spec, len(pts))
	for i, p := range pts {
		specs[i] = scenario.Spec{
			Workload: "nas",
			Machine:  scenario.Machine{Nodes: p.nodes, RanksPerNode: p.rpn, HTT: p.htt},
			SMM:      scenario.SMMPlan{Level: levelName(p.level), SMIScale: cfg.SMIScale},
			Runs:     cfg.runs(6),
			Seed:     cfg.seed(),
			Params:   scenario.Params{Bench: string(p.bench), Class: string(p.class)},
		}
	}
	ms, errs, _ := durable.RunSpecs(cfg.ctx(), specs, cfg.durableOptions())
	if err := parsweep.FirstError(errs); err != nil {
		return nil, err
	}
	secs := make([]float64, len(ms))
	for i, m := range ms {
		secs[i] = m.NAS.Seconds()
	}
	return secs, nil
}

// tripleReader walks a runNASCells result slice three seconds at a time.
type tripleReader struct {
	secs []float64
	k    int
}

func (r *tripleReader) next() *Triple {
	tr := Triple{SMM0: r.secs[r.k], SMM1: r.secs[r.k+1], SMM2: r.secs[r.k+2]}
	r.k += 3
	return &tr
}

func (c Config) classes() []smistudy.Class {
	if c.Quick {
		return []smistudy.Class{smistudy.ClassA}
	}
	return []smistudy.Class{smistudy.ClassA, smistudy.ClassB, smistudy.ClassC}
}

// Table1 regenerates Table 1: BT with no/short/long SMM intervals over
// square rank counts.
func Table1(cfg Config) (NASTable, error) {
	t := NASTable{Number: 1, Bench: smistudy.BT,
		Title: "Table 1: BT Benchmark with no (0), short (1) and long (2) SMM intervals"}
	nodes := []int{1, 4, 16}
	if cfg.Quick {
		nodes = []int{1, 4}
	}
	var pts []nasCellPoint
	for _, class := range cfg.classes() {
		for _, n := range nodes {
			pts = append(pts, levels(smistudy.BT, class, n, 1, false)...)
			pts = append(pts, levels(smistudy.BT, class, n, 4, false)...)
		}
	}
	secs, err := runNASCells(cfg, pts)
	if err != nil {
		return t, err
	}
	rd := tripleReader{secs: secs}
	for _, class := range cfg.classes() {
		for _, n := range nodes {
			row := NASRow{Class: class, Nodes: n}
			row.One = rd.next()
			row.Four = rd.next()
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Table2 regenerates Table 2: EP with no/short/long SMM intervals.
func Table2(cfg Config) (NASTable, error) {
	return nasPow2Table(cfg, 2, smistudy.EP,
		"Table 2: EP Benchmark with no (0), short (1) and long (2) SMM intervals", nil)
}

// Table3 regenerates Table 3: FT with no/short/long SMM intervals. The
// paper leaves FT.C on 1 and 2 nodes × 1 rank/node unmeasured; those
// halves are nil here too.
func Table3(cfg Config) (NASTable, error) {
	skipOne := func(class smistudy.Class, nodes int) bool {
		return class == smistudy.ClassC && nodes <= 2
	}
	return nasPow2Table(cfg, 3, smistudy.FT,
		"Table 3: FT Benchmark with no (0), short (1) and long (2) SMM intervals", skipOne)
}

func nasPow2Table(cfg Config, number int, b smistudy.Benchmark, title string, skipOne func(smistudy.Class, int) bool) (NASTable, error) {
	t := NASTable{Number: number, Bench: b, Title: title}
	nodes := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		nodes = []int{1, 4}
	}
	var pts []nasCellPoint
	for _, class := range cfg.classes() {
		for _, n := range nodes {
			if skipOne == nil || !skipOne(class, n) {
				pts = append(pts, levels(b, class, n, 1, false)...)
			}
			pts = append(pts, levels(b, class, n, 4, false)...)
		}
	}
	secs, err := runNASCells(cfg, pts)
	if err != nil {
		return t, err
	}
	rd := tripleReader{secs: secs}
	for _, class := range cfg.classes() {
		for _, n := range nodes {
			row := NASRow{Class: class, Nodes: n}
			if skipOne == nil || !skipOne(class, n) {
				row.One = rd.next()
			}
			row.Four = rd.next()
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Render prints the table in the paper's layout.
func (t NASTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", t.Title)
	for _, half := range []struct {
		name string
		get  func(NASRow) *Triple
	}{
		{"1 MPI rank per node", func(r NASRow) *Triple { return r.One }},
		{"4 MPI ranks per node", func(r NASRow) *Triple { return r.Four }},
	} {
		fmt.Fprintf(&b, "  [%s]\n", half.name)
		tab := metrics.NewTable("class", "nodes", "SMM0", "SMM1", "d1", "%1", "SMM2", "d2", "%2")
		for _, row := range t.Rows {
			tr := half.get(row)
			if tr == nil {
				tab.AddRow(string(row.Class), row.Nodes, "-", "-", "-", "-", "-", "-", "-")
				continue
			}
			tab.AddRow(string(row.Class), row.Nodes,
				tr.SMM0, tr.SMM1, tr.DeltaShort(), tr.PctShort(),
				tr.SMM2, tr.DeltaLong(), tr.PctLong())
		}
		b.WriteString(indent(tab.String(), "  "))
		b.WriteByte('\n')
	}
	return b.String()
}

// HTTRow is one row of Tables 4–5: ht=0 vs ht=1 per SMM level.
type HTTRow struct {
	Class smistudy.Class
	Nodes int
	// Off and On are the ht=0 and ht=1 triples.
	Off, On Triple
}

// HTTTable is a regenerated Table 4 or 5.
type HTTTable struct {
	Number int
	Title  string
	Bench  smistudy.Benchmark
	Rows   []HTTRow
}

// Table4 regenerates Table 4: the effect of HTT on EP with 4 ranks/node.
func Table4(cfg Config) (HTTTable, error) {
	return httTable(cfg, 4, smistudy.EP, "Table 4: Effect of HTT on EP with 4 MPI ranks per node")
}

// Table5 regenerates Table 5: the effect of HTT on FT with 4 ranks/node.
func Table5(cfg Config) (HTTTable, error) {
	return httTable(cfg, 5, smistudy.FT, "Table 5: Effect of HTT on FT with 4 MPI Ranks Per Node")
}

func httTable(cfg Config, number int, b smistudy.Benchmark, title string) (HTTTable, error) {
	t := HTTTable{Number: number, Bench: b, Title: title}
	nodes := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		nodes = []int{1, 4}
	}
	var pts []nasCellPoint
	for _, class := range cfg.classes() {
		for _, n := range nodes {
			pts = append(pts, levels(b, class, n, 4, false)...)
			pts = append(pts, levels(b, class, n, 4, true)...)
		}
	}
	secs, err := runNASCells(cfg, pts)
	if err != nil {
		return t, err
	}
	rd := tripleReader{secs: secs}
	for _, class := range cfg.classes() {
		for _, n := range nodes {
			row := HTTRow{Class: class, Nodes: n}
			row.Off = *rd.next()
			row.On = *rd.next()
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Render prints the table in the paper's layout.
func (t HTTTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", t.Title)
	tab := metrics.NewTable("class", "nodes",
		"SMM0 ht=0", "ht=1", "d",
		"SMM1 ht=0", "ht=1", "d",
		"SMM2 ht=0", "ht=1", "d", "%")
	for _, row := range t.Rows {
		d0 := row.On.SMM0 - row.Off.SMM0
		d1 := row.On.SMM1 - row.Off.SMM1
		d2 := row.On.SMM2 - row.Off.SMM2
		tab.AddRow(string(row.Class), row.Nodes,
			row.Off.SMM0, row.On.SMM0, d0,
			row.Off.SMM1, row.On.SMM1, d1,
			row.Off.SMM2, row.On.SMM2, d2,
			metrics.PercentChange(row.Off.SMM2, row.On.SMM2))
	}
	b.WriteString(tab.String())
	return b.String()
}

// ConvolvePoint is one measured Figure-1 point.
type ConvolvePoint struct {
	Behavior   smistudy.CacheBehavior
	CPUs       int
	IntervalMS int // 0 = no SMIs
	Seconds    float64
	StdDev     float64
}

// Figure1 is the regenerated Convolve study: execution time vs SMI
// interval per CPU configuration (left panels) — the right panels (time
// vs CPU count at 50 ms) are a re-slicing of the same points.
type Figure1 struct {
	Points []ConvolvePoint
}

// Figure1Convolve regenerates Figure 1. The full sweep covers intervals
// 50–1500 ms in 50 ms steps for 1–8 CPUs and both cache behaviours;
// Quick reduces it to a coarse grid.
func Figure1Convolve(cfg Config) (Figure1, error) {
	intervals := sweep(50, 1500, 50)
	cpus := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if cfg.Quick {
		intervals = []int{50, 400, 1500}
		cpus = []int{1, 4, 8}
	}
	type convPoint struct {
		beh smistudy.CacheBehavior
		nc  int
		iv  int
	}
	var pts []convPoint
	for _, beh := range []smistudy.CacheBehavior{smistudy.CacheUnfriendly, smistudy.CacheFriendly} {
		for _, nc := range cpus {
			for _, iv := range intervals {
				pts = append(pts, convPoint{beh, nc, iv})
			}
		}
	}
	var fig Figure1
	cacheName := func(beh smistudy.CacheBehavior) string {
		if beh == smistudy.CacheUnfriendly {
			return "unfriendly"
		}
		return "friendly"
	}
	specs := make([]scenario.Spec, len(pts))
	for i, p := range pts {
		specs[i] = scenario.Spec{
			Workload: "convolve",
			Machine:  scenario.Machine{CPUs: p.nc},
			SMM:      scenario.SMMPlan{IntervalMS: p.iv, SMIScale: cfg.SMIScale},
			Runs:     cfg.runs(3),
			Seed:     cfg.seed(),
			Params:   scenario.Params{Cache: cacheName(p.beh)},
		}
	}
	ms, errs, _ := durable.RunSpecs(cfg.ctx(), specs, cfg.durableOptions())
	if err := parsweep.FirstError(errs); err != nil {
		return fig, err
	}
	fig.Points = make([]ConvolvePoint, len(ms))
	for i, m := range ms {
		fig.Points[i] = ConvolvePoint{
			Behavior: pts[i].beh, CPUs: pts[i].nc, IntervalMS: pts[i].iv,
			Seconds: m.Convolve.MeanTime.Seconds(),
			StdDev:  m.Convolve.StdDev.Seconds(),
		}
	}
	return fig, nil
}

// Left renders the time-vs-interval chart for one behaviour.
func (f Figure1) Left(beh smistudy.CacheBehavior) string {
	byCPU := map[int]*metrics.Series{}
	var order []int
	for _, p := range f.Points {
		if p.Behavior != beh {
			continue
		}
		s, ok := byCPU[p.CPUs]
		if !ok {
			s = &metrics.Series{Name: fmt.Sprintf("%d CPUs", p.CPUs)}
			byCPU[p.CPUs] = s
			order = append(order, p.CPUs)
		}
		s.X = append(s.X, float64(p.IntervalMS))
		s.Y = append(s.Y, p.Seconds)
	}
	ch := metrics.Chart{
		Title:  fmt.Sprintf("Figure 1 (%v): execution time vs time between SMIs", beh),
		XLabel: "time between SMIs (ms)",
		YLabel: "seconds",
	}
	for _, c := range order {
		ch.Series = append(ch.Series, *byCPU[c])
	}
	return ch.Render()
}

// Right renders the time-vs-CPUs chart at the highest SMI frequency.
func (f Figure1) Right(beh smistudy.CacheBehavior) string {
	s := metrics.Series{Name: "50 ms interval"}
	for _, p := range f.Points {
		if p.Behavior == beh && p.IntervalMS == 50 {
			s.X = append(s.X, float64(p.CPUs))
			s.Y = append(s.Y, p.Seconds)
		}
	}
	ch := metrics.Chart{
		Title:  fmt.Sprintf("Figure 1 (%v): execution time vs logical CPUs at 50 ms", beh),
		XLabel: "online logical CPUs",
		YLabel: "seconds",
		Series: []metrics.Series{s},
	}
	return ch.Render()
}

// CSV dumps all Figure-1 points.
func (f Figure1) CSV() string {
	tab := metrics.NewTable("behavior", "cpus", "interval_ms", "seconds", "stddev")
	for _, p := range f.Points {
		tab.AddRow(p.Behavior.String(), p.CPUs, p.IntervalMS, p.Seconds, p.StdDev)
	}
	return tab.CSV()
}

// UnixBenchPoint is one measured Figure-2 point.
type UnixBenchPoint struct {
	CPUs       int
	IntervalMS int
	Iteration  int
	Score      float64
}

// Figure2 is the regenerated UnixBench study.
type Figure2 struct {
	Points []UnixBenchPoint
}

// Figure2UnixBench regenerates Figure 2: long SMIs at intervals from
// 100 ms to 1600 ms in 500 ms increments for each CPU configuration,
// looped (the paper plots the score per iteration).
func Figure2UnixBench(cfg Config) (Figure2, error) {
	intervals := []int{100, 600, 1100, 1600}
	cpus := []int{1, 2, 3, 4, 5, 6, 7, 8}
	if cfg.Quick {
		intervals = []int{100, 1600}
		cpus = []int{1, 4, 8}
	}
	iters := cfg.runs(3)
	type ubPoint struct {
		nc, iv, it int
	}
	var pts []ubPoint
	for _, nc := range cpus {
		for _, iv := range intervals {
			for it := 0; it < iters; it++ {
				pts = append(pts, ubPoint{nc, iv, it})
			}
		}
	}
	var fig Figure2
	specs := make([]scenario.Spec, len(pts))
	for i, p := range pts {
		specs[i] = scenario.Spec{
			Workload: "unixbench",
			Machine:  scenario.Machine{CPUs: p.nc},
			SMM:      scenario.SMMPlan{Level: "long", IntervalMS: p.iv, SMIScale: cfg.SMIScale},
			// Mix the cell coordinates into the derived seed: the old
			// base+iteration derivation reused identical seeds across
			// every (CPUs, interval) cell, making sibling cells
			// statistically dependent.
			Seed:   parsweep.Seed(cfg.seed(), int64(p.nc), int64(p.iv), int64(p.it)),
			Params: scenario.Params{DurationS: 2},
		}
	}
	ms, errs, _ := durable.RunSpecs(cfg.ctx(), specs, cfg.durableOptions())
	if err := parsweep.FirstError(errs); err != nil {
		return fig, err
	}
	fig.Points = make([]UnixBenchPoint, len(ms))
	for i, m := range ms {
		fig.Points[i] = UnixBenchPoint{
			CPUs: pts[i].nc, IntervalMS: pts[i].iv, Iteration: pts[i].it, Score: m.UnixBench.Score,
		}
	}
	return fig, nil
}

// Render draws the score-vs-interval chart, one series per CPU config.
func (f Figure2) Render() string {
	byCPU := map[int]*metrics.Series{}
	var order []int
	for _, p := range f.Points {
		s, ok := byCPU[p.CPUs]
		if !ok {
			s = &metrics.Series{Name: fmt.Sprintf("%d CPUs", p.CPUs)}
			byCPU[p.CPUs] = s
			order = append(order, p.CPUs)
		}
		s.X = append(s.X, float64(p.IntervalMS))
		s.Y = append(s.Y, p.Score)
	}
	ch := metrics.Chart{
		Title:  "Figure 2: UnixBench index score vs time between long SMIs",
		XLabel: "time between SMIs (ms / jiffies)",
		YLabel: "index score (higher is better)",
	}
	for _, c := range order {
		ch.Series = append(ch.Series, *byCPU[c])
	}
	return ch.Render()
}

// CSV dumps all Figure-2 points.
func (f Figure2) CSV() string {
	tab := metrics.NewTable("cpus", "interval_ms", "iteration", "score")
	for _, p := range f.Points {
		tab.AddRow(p.CPUs, p.IntervalMS, p.Iteration, p.Score)
	}
	return tab.CSV()
}

func sweep(from, to, step int) []int {
	var out []int
	for v := from; v <= to; v += step {
		out = append(out, v)
	}
	return out
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
