package experiments

import (
	"fmt"

	"smistudy"
	"smistudy/internal/metrics"
	"smistudy/internal/parsweep"
	"smistudy/internal/runner"
	"smistudy/internal/sim"
	"smistudy/internal/smm"
)

// AmpCell is one measured amplification cell: how much extra runtime one
// unit of injected per-node SMM residency cost a benchmark.
type AmpCell struct {
	Bench     string  `json:"bench"`
	Class     string  `json:"class"`
	Nodes     int     `json:"nodes"`
	BaseS     float64 `json:"base_s"`
	NoisyS    float64 `json:"noisy_s"`
	Residency float64 `json:"residency_per_node_s"`
	Factor    float64 `json:"amplification"`
}

// AmpResult is the structured amplification study.
type AmpResult struct {
	Cells []AmpCell `json:"cells"`
}

// Find returns the cell for a configuration, or nil.
func (a AmpResult) Find(bench string, class byte, nodes int) *AmpCell {
	for i := range a.Cells {
		c := &a.Cells[i]
		if c.Bench == bench && c.Class == string(class) && c.Nodes == nodes {
			return c
		}
	}
	return nil
}

// AmplificationData quantifies Ferreira et al.'s absorption/
// amplification framing for the paper's benchmarks: the amplification
// factor is (noisy − base) / injected residency per node. A factor of 1
// means each node's noise cost exactly its residency (no interaction);
// below 1 the noise was absorbed in slack; above 1 synchronization
// propagated one node's stalls to all of them.
func AmplificationData(cfg Config) (AmpResult, error) {
	type cell struct {
		bench smistudy.Benchmark
		class smistudy.Class
		nodes int
	}
	cells := []cell{
		{smistudy.EP, smistudy.ClassA, 1},
		{smistudy.EP, smistudy.ClassA, 16},
		{smistudy.BT, smistudy.ClassA, 16},
		{smistudy.BT, smistudy.ClassC, 16},
		{smistudy.FT, smistudy.ClassB, 4},
	}
	if cfg.Quick {
		cells = cells[:2]
	}
	// Flatten each cell into its two independent runs (quiet, noisy);
	// the per-cell "no residency injected" check moves to the fold so
	// the sweep units stay independent single runs.
	type ampPoint struct {
		cell  cell
		level smm.Level
	}
	var pts []ampPoint
	for _, c := range cells {
		pts = append(pts, ampPoint{c, smm.SMMNone}, ampPoint{c, smm.SMMLong})
	}
	type ampOut struct {
		time      sim.Time
		residency sim.Time
	}
	outs, err := parsweep.Run(cfg.ctx(), pts, cfg.Workers, func(p ampPoint) (ampOut, error) {
		t, res, err := amplifyRun(cfg, p.cell.bench, p.cell.class, p.cell.nodes, p.level)
		return ampOut{t, res}, err
	})
	if err != nil {
		return AmpResult{}, err
	}
	var out AmpResult
	for i, c := range cells {
		base, noisy, res := outs[2*i].time, outs[2*i+1].time, outs[2*i+1].residency
		if res == 0 {
			return AmpResult{}, fmt.Errorf("experiments: no residency injected for %s.%c on %d nodes", c.bench, c.class, c.nodes)
		}
		out.Cells = append(out.Cells, AmpCell{
			Bench: string(c.bench), Class: string(c.class), Nodes: c.nodes,
			BaseS: base.Seconds(), NoisyS: noisy.Seconds(),
			Residency: res.Seconds(),
			Factor:    (noisy - base).Seconds() / res.Seconds(),
		})
	}
	return out, nil
}

// Render prints the study in its report layout.
func (a AmpResult) Render() string {
	tab := metrics.NewTable("bench", "class", "nodes", "base (s)", "noisy (s)", "residency/node (s)", "amplification ×")
	for _, c := range a.Cells {
		tab.AddRow(c.Bench, c.Class, c.Nodes, c.BaseS, c.NoisyS, c.Residency, c.Factor)
	}
	return "Noise amplification (long SMIs at 1/s): extra runtime ÷ injected\n" +
		"per-node SMM residency. ≈1 on one node (no one to absorb or\n" +
		"amplify); >1 where synchronization propagates stalls cluster-wide;\n" +
		"<1 where slack absorbs them (Ferreira et al.'s framing):\n\n" +
		tab.String()
}

// AmplificationStudy renders AmplificationData for the extension report.
func AmplificationStudy(cfg Config) (string, error) {
	a, err := AmplificationData(cfg)
	if err != nil {
		return "", err
	}
	return a.Render(), nil
}

// amplifyRun measures one benchmark run under the given SMM level on a
// fresh engine, returning the run time and the per-node SMM residency.
// It counts as one cell in cfg.Stats.
func amplifyRun(cfg Config, b smistudy.Benchmark, class smistudy.Class, nodes int, level smm.Level) (sim.Time, sim.Time, error) {
	cfg.Stats.AddCell()
	return runner.AmplifyRun(cfg.seed(), b, class, nodes, level, cfg.SMIScale, cfg.Stats)
}
