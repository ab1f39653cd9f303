package experiments

import (
	"errors"
	"fmt"
	"strings"

	"smistudy"
	"smistudy/internal/faults"
	"smistudy/internal/metrics"
	"smistudy/internal/nas"
	"smistudy/internal/parsweep"
	"smistudy/internal/runner"
	"smistudy/internal/sim"
)

// FaultStudy extends the paper's noise framework from SMIs to cluster
// faults: message loss absorbed by retransmission, single-node
// degradation amplified through synchronization, and crash scenarios
// turned from hangs into bounded, attributed failures. The common
// thread is the paper's amplification mechanism — a blocking collective
// ends at the *worst* node, so one faulty node bills the whole cluster
// (the max-over-nodes shape internal/analytic formalizes for SMM
// noise).
func FaultStudy(cfg Config) (string, error) {
	var b strings.Builder
	loss, err := lossSweep(cfg)
	if err != nil {
		return "", err
	}
	b.WriteString(loss)
	amp, err := degradeAmplification(cfg)
	if err != nil {
		return "", err
	}
	b.WriteString("\n" + amp)
	crash, err := crashTiming(cfg)
	if err != nil {
		return "", err
	}
	b.WriteString("\n" + crash)
	return b.String(), nil
}

// lossSweep runs the benchmarks over increasingly lossy fabrics: the
// reliable transport must complete every run, paying for the loss in
// retransmissions and time.
func lossSweep(cfg Config) (string, error) {
	benches := []smistudy.Benchmark{smistudy.EP, smistudy.BT, smistudy.FT}
	rates := []float64{0, 0.001, 0.01, 0.05}
	if cfg.Quick {
		benches = benches[:1]
		rates = []float64{0, 0.01}
	}
	type lossPoint struct {
		bench smistudy.Benchmark
		rate  float64
	}
	var pts []lossPoint
	for _, bench := range benches {
		for _, p := range rates {
			pts = append(pts, lossPoint{bench, p})
		}
	}
	results, err := parsweep.Run(cfg.ctx(), pts, cfg.Workers, func(pt lossPoint) (smistudy.NASResult, error) {
		opts := smistudy.NASOptions{
			Bench: pt.bench, Class: smistudy.ClassA,
			Nodes: 4, RanksPerNode: 1, Seed: cfg.seed(),
			Tracer: cfg.Tracer, Stats: cfg.Stats,
		}
		if pt.rate > 0 {
			opts.Faults = &smistudy.FaultPlan{LossProb: pt.rate}
		}
		cfg.Stats.AddCell()
		res, err := smistudy.RunNAS(opts)
		if err != nil {
			return smistudy.NASResult{}, fmt.Errorf("experiments: %s.A at %.1f%% loss: %w", pt.bench, pt.rate*100, err)
		}
		return res, nil
	})
	if err != nil {
		return "", err
	}
	tab := metrics.NewTable("bench", "loss %", "time (s)", "slowdown %", "drops", "retransmits")
	var base float64
	for i, pt := range pts {
		res := results[i]
		sec := res.MeanTime.Seconds()
		if pt.rate == 0 {
			base = sec
		}
		tab.AddRow(string(pt.bench), pt.rate*100, sec,
			metrics.PercentChange(base, sec), res.Dropped, res.Retransmits)
	}
	return "Loss sweep (class A, 4 nodes, ack/retransmit transport when lossy;\n" +
		"the 0% rows are the fire-and-forget baseline, so their slowdown\n" +
		"column also prices the ack protocol itself):\n\n" + tab.String(), nil
}

// DegradeResult is the structured single-node fault-amplification
// study: one degraded node vs a fully degraded fabric vs an SMI storm
// on one node, all against the clean baseline. OneShare near 1 is the
// max-over-nodes shape the analytic model predicts (one bad node bills
// the whole cluster); 1/Nodes would be proportional resource sharing.
type DegradeResult struct {
	Spec       string  `json:"spec"`
	Nodes      int     `json:"nodes"`
	CleanS     float64 `json:"clean_s"`
	OneS       float64 `json:"one_degraded_s"`
	AllS       float64 `json:"all_degraded_s"`
	StormS     float64 `json:"storm_s"`
	StormResid float64 `json:"storm_residency_s"`
	// OneShare is (one − clean) / (all − clean): the fraction of the
	// whole-fabric cost a single bad node already causes.
	OneShare float64 `json:"one_share"`
	// StormShare is (storm − clean) / injected residency on the noisy
	// node: ≈1 when the job pays that node's bill in full.
	StormShare float64 `json:"storm_share"`
}

// DegradeData measures the max-over-nodes shape on a synchronized
// benchmark: degrading the links into ONE of n nodes costs nearly as
// much as degrading every link, because each iteration's exchange ends
// at the slowest link either way. It cross-checks the same shape with
// an SMI storm on one node: the whole job pays that node's residency in
// full (amplification ≈ 1 × the faulty node's bill, not 1/n of it).
func DegradeData(cfg Config) (DegradeResult, error) {
	const nodes = 4
	spec := nas.Spec{Bench: nas.BT, Class: nas.ClassA}
	if cfg.Quick {
		spec.Class = nas.ClassS
	}
	slow := faults.DegradeNodeLinks(1, 0, 0, 4, 200*sim.Microsecond)

	var one faults.Schedule
	one.Add(slow)
	var all faults.Schedule
	allSlow := slow
	allSlow.Dst = faults.Wildcard
	all.Add(allSlow)
	var storm faults.Schedule
	storm.Add(faults.StormAt(1, 0, 0, 10))

	type faultedOut struct {
		res       nas.Result
		residency sim.Time
	}
	scheds := []faults.Schedule{{}, one, all, storm}
	outs, err := parsweep.Run(cfg.ctx(), scheds, cfg.Workers, func(s faults.Schedule) (faultedOut, error) {
		cfg.Stats.AddCell()
		res, residency, err := runner.FaultedNAS(cfg.seed(), spec, nodes, s, cfg.Stats)
		return faultedOut{res, residency}, err
	})
	if err != nil {
		return DegradeResult{}, err
	}
	clean, oneRes, allRes, stormRes := outs[0].res, outs[1].res, outs[2].res, outs[3].res
	stormResidency := outs[3].residency
	stormExtra := stormRes.Time - clean.Time
	stormShare := 0.0
	if stormResidency > 0 {
		stormShare = stormExtra.Seconds() / stormResidency.Seconds()
	}
	oneExtra := (oneRes.Time - clean.Time).Seconds()
	allExtra := (allRes.Time - clean.Time).Seconds()
	ratio := 0.0
	if allExtra > 0 {
		ratio = oneExtra / allExtra
	}
	return DegradeResult{
		Spec: spec.String(), Nodes: nodes,
		CleanS: clean.Time.Seconds(), OneS: oneRes.Time.Seconds(),
		AllS: allRes.Time.Seconds(), StormS: stormRes.Time.Seconds(),
		StormResid: stormResidency.Seconds(),
		OneShare:   ratio, StormShare: stormShare,
	}, nil
}

// Render prints the study in its report layout.
func (d DegradeResult) Render() string {
	tab := metrics.NewTable("scenario", "time (s)", "slowdown %")
	tab.AddRow("clean", d.CleanS, 0.0)
	tab.AddRow("degrade links into node 1 (4x + 200 us)", d.OneS,
		metrics.PercentChange(d.CleanS, d.OneS))
	tab.AddRow("degrade every link", d.AllS,
		metrics.PercentChange(d.CleanS, d.AllS))
	tab.AddRow("SMI storm on node 1 (short SMI / 10 jiffies)", d.StormS,
		metrics.PercentChange(d.CleanS, d.StormS))
	return fmt.Sprintf(
		"Single-node fault amplification (%s, %d nodes):\n\n%s\n"+
			"One degraded node costs %.0f%% of degrading the whole fabric\n"+
			"(resource share would predict %.0f%%): every exchange ends at the\n"+
			"slowest link — the analytic model's max-over-nodes bound. The SMI\n"+
			"storm confirms it: the job stretched by %.2f s against %.2f s of\n"+
			"residency injected on one node (share %.2f; 1/n sharing would\n"+
			"predict %.2f).\n",
		d.Spec, d.Nodes, tab.String(),
		d.OneShare*100, 100.0/float64(d.Nodes),
		d.StormS-d.CleanS, d.StormResid, d.StormShare, 1.0/float64(d.Nodes))
}

// degradeAmplification renders DegradeData for FaultStudy.
func degradeAmplification(cfg Config) (string, error) {
	d, err := DegradeData(cfg)
	if err != nil {
		return "", err
	}
	return d.Render(), nil
}

// crashTiming crashes one node at several points of an EP run and
// reports how the failure surfaces: ErrPeerUnreachable from the
// retransmission protocol when a rank was actively talking to the dead
// node, or a watchdog no-progress report when every survivor was merely
// waiting. Either way the run ends at a bounded simulated time instead
// of hanging.
func crashTiming(cfg Config) (string, error) {
	cfg.Stats.AddCell()
	base, err := smistudy.RunNAS(smistudy.NASOptions{
		Bench: smistudy.EP, Class: smistudy.ClassA,
		Nodes: 4, RanksPerNode: 1, Seed: cfg.seed(),
		Tracer: cfg.Tracer, Stats: cfg.Stats,
	})
	if err != nil {
		return "", err
	}
	fractions := []float64{0.25, 0.75}
	if cfg.Quick {
		fractions = fractions[:1]
	}
	// The crash error is the measured outcome, not a sweep failure, so it
	// rides inside the payload instead of aborting the pool.
	type crashOut struct {
		res smistudy.NASResult
		err error
	}
	outs, poolErr := parsweep.Run(cfg.ctx(), fractions, cfg.Workers, func(frac float64) (crashOut, error) {
		crashAt := sim.FromSeconds(base.MeanTime.Seconds() * frac)
		cfg.Stats.AddCell()
		res, err := smistudy.RunNAS(smistudy.NASOptions{
			Bench: smistudy.EP, Class: smistudy.ClassA,
			Nodes: 4, RanksPerNode: 1, Seed: cfg.seed(),
			Watchdog: 10 * sim.Second,
			Faults:   &smistudy.FaultPlan{CrashNode: 1, CrashAt: crashAt},
			Tracer:   cfg.Tracer,
			Stats:    cfg.Stats,
		})
		return crashOut{res, err}, nil
	})
	if poolErr != nil {
		return "", poolErr
	}
	tab := metrics.NewTable("crash at", "outcome", "detected after (s)", "retransmits")
	for i, frac := range fractions {
		crashAt := sim.FromSeconds(base.MeanTime.Seconds() * frac)
		res, err := outs[i].res, outs[i].err
		var np *smistudy.NoProgressError
		outcome := "completed"
		detected := "-"
		switch {
		case err == nil:
			// A crash after the job's communication epilogue is
			// survivable; report it as such.
		case errors.Is(err, smistudy.ErrPeerUnreachable):
			outcome = "peer unreachable"
			if errors.As(err, &np) && np.At > crashAt {
				detected = fmt.Sprintf("%.2f", (np.At - crashAt).Seconds())
			}
		case errors.As(err, &np):
			outcome = "watchdog: no progress"
			if np.At > crashAt {
				detected = fmt.Sprintf("%.2f", (np.At - crashAt).Seconds())
			}
		default:
			return "", err
		}
		tab.AddRow(fmt.Sprintf("%.0f%% of the run", frac*100), outcome, detected, res.Retransmits)
	}
	return fmt.Sprintf(
		"Crash timing (EP.A, 4 nodes, node 1 crashes mid-run; baseline\n"+
			"%.2f s): a run against a dead peer now fails with an attributed\n"+
			"error in bounded simulated time instead of deadlocking.\n\n%s",
		base.MeanTime.Seconds(), tab.String()), nil
}
