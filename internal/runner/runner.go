// Package runner is the single engine-provisioning path of the study.
// Every facade function in the root package, every experiment sweep and
// every CLI ultimately executes here: a workload registered in this
// package builds its simulation engine, wires the SMM driver, fault
// schedule, observability probe and tracer in one place, and runs its
// repetitions through parsweep with per-run derived seeds.
//
// There are two ways in:
//
//   - Typed entry points (RunNAS, RunConvolve, RunUnixBench, RunRIM,
//     MeasureEnergy, MeasureClockDrift, ProfileWorkload, ...) keep exact
//     sim.Time parameters for programmatic callers — the root package's
//     facades are aliases and one-line delegations to these.
//   - Run / RunWith execute a declarative scenario.Spec by lowering it
//     onto the same typed entry points via the workload registry, so a
//     JSON file measures byte-for-byte what the equivalent Go call
//     measures.
package runner

import (
	"errors"
	"fmt"

	"smistudy/internal/nas"
	"smistudy/internal/obs"
	"smistudy/internal/perturb"
	"smistudy/internal/scenario"
	"smistudy/internal/sim"
	"smistudy/internal/smm"
)

// ErrInvalidSpec marks scenario rejections — unknown workloads,
// unparsable parameters, contradictory machine shapes — so CLIs can
// map them to usage errors (exit 2) instead of runtime failures.
var ErrInvalidSpec = errors.New("invalid scenario")

// invalidf wraps a rejection in ErrInvalidSpec.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInvalidSpec}, args...)...)
}

// Exec carries execution-only concerns that cannot change a
// measurement's value: how many OS threads fan the repetitions and
// where observability events go. They live outside scenario.Spec so a
// spec stays a complete description of *what* was measured.
type Exec struct {
	// Workers fans independent repetitions over this many OS threads
	// (each run owns a fresh engine). ≤ 1 runs sequentially; any value
	// yields bit-identical results.
	Workers int
	// Tracer, when non-nil, receives every run's observability events,
	// stamped with per-run indices. Must be concurrency-safe (an
	// *obs.Bus is) when Workers > 1.
	Tracer obs.Tracer
	// Stats, when non-nil, accumulates execution accounting (cells,
	// simulated runs, engine events) across every cell run under it.
	// Shared safely by concurrent workers.
	Stats *ExecStats
}

// Run executes a scenario spec through the workload registry with
// default execution settings (sequential, untraced).
func Run(sp scenario.Spec) (Measurement, error) {
	return RunWith(sp, Exec{})
}

// RunWith executes a scenario spec through the workload registry. The
// returned Measurement has exactly one workload section populated; on
// error it may still carry a partial section (fault-scenario NAS runs
// report their transport accounting).
func RunWith(sp scenario.Spec, x Exec) (Measurement, error) {
	if err := Validate(sp); err != nil {
		return Measurement{}, err
	}
	w, _ := Lookup(sp.Workload)
	x.Stats.AddCell()
	m, err := w.Run(sp, x)
	m.Name = sp.Name
	m.Workload = sp.Workload
	return m, err
}

// Validate checks a spec without running it: the scenario shape rules,
// workload existence, and the workload's own parameter validation.
// Every rejection wraps ErrInvalidSpec. CLIs call this before creating
// any output files so operator typos fail up front.
func Validate(sp scenario.Spec) error {
	if err := sp.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	w, ok := Lookup(sp.Workload)
	if !ok {
		return invalidf("unknown workload %q (have %v)", sp.Workload, Names())
	}
	if w.Validate != nil {
		if err := w.Validate(sp); err != nil {
			return invalidf("workload %s: %v", sp.Workload, err)
		}
	}
	return nil
}

// parseLevel maps a scenario SMM level to the injection level.
func parseLevel(s string) (smm.Level, error) {
	switch s {
	case "", "none":
		return smm.SMMNone, nil
	case "short":
		return smm.SMMShort, nil
	case "long":
		return smm.SMMLong, nil
	}
	return 0, fmt.Errorf("unknown smm.level %q (want none, short or long)", s)
}

// parseBench validates a scenario benchmark name against the modeled
// NAS kernels (the paper's three plus the extended set).
func parseBench(s string) (nas.Benchmark, error) {
	for _, b := range nas.AllBenchmarks {
		if nas.Benchmark(s) == b {
			return b, nil
		}
	}
	return "", fmt.Errorf("unknown params.bench %q (want one of %v)", s, nas.AllBenchmarks)
}

// parseClass validates a scenario problem class.
func parseClass(s string) (nas.Class, error) {
	if len(s) == 1 {
		switch c := nas.Class(s[0]); c {
		case nas.ClassS, nas.ClassA, nas.ClassB, nas.ClassC:
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown params.class %q (want S, A, B or C)", s)
}

// LowerFaults converts a scenario fault plan (float seconds) to the
// runner's exact sim.Time plan. Nil or inactive plans lower to nil so
// quiet runs take the fault-free fast path. Exported so CLIs can
// pre-validate the lowered schedule (an invalid fault flag is an
// operator error, not a fault-scenario outcome).
func LowerFaults(p *scenario.FaultPlan) *FaultPlan {
	if !p.Active() {
		return nil
	}
	return &FaultPlan{
		LossProb:  p.LossProb,
		CrashNode: p.CrashNode, CrashAt: sim.FromSeconds(p.CrashAtS),
		HangNode: p.HangNode, HangAt: sim.FromSeconds(p.HangAtS), HangFor: sim.FromSeconds(p.HangForS),
		StormNode: p.StormNode, StormAt: sim.FromSeconds(p.StormAtS),
		StormFor: sim.FromSeconds(p.StormForS), StormPeriodJiffies: p.StormPeriodJiffies,
		DegradeNode: p.DegradeNode, DegradeAt: sim.FromSeconds(p.DegradeAtS),
		DegradeFor: sim.FromSeconds(p.DegradeForS), DegradeSlow: p.DegradeSlow,
		DegradeLatency: sim.FromSeconds(p.DegradeLatencyS),
	}
}

// LowerJitter converts a spec's osjitter noise entries to the
// perturbation layer's jitter configs (milliseconds/microseconds to
// sim.Time). The returned configs carry the spec-level seed; per-run
// and per-node stream derivation happens at provisioning time so
// serialized options stay free of per-run state.
func LowerJitter(sp scenario.Spec) []perturb.JitterConfig {
	js := sp.JitterSources()
	if len(js) == 0 {
		return nil
	}
	out := make([]perturb.JitterConfig, len(js))
	for i, j := range js {
		out[i] = perturb.JitterConfig{
			Period:   sim.FromSeconds(j.PeriodMS / 1e3),
			Duration: sim.FromSeconds(j.DurationUS / 1e6),
			Jitter:   j.JitterFrac,
			Seed:     j.Seed,
			CPUs:     append([]int(nil), j.CPUs...),
		}
	}
	return out
}

// jitterForRun rebinds jitter configs to one repetition: each source
// mixes the run seed and its list position into its stream seed, so
// repetitions decorrelate the way SMI phase jitter does while staying
// fully replayable.
func jitterForRun(cfgs []perturb.JitterConfig, runSeed int64) []perturb.JitterConfig {
	if len(cfgs) == 0 {
		return nil
	}
	out := make([]perturb.JitterConfig, len(cfgs))
	for i, c := range cfgs {
		c.Seed = perturb.DeriveSeed(c.Seed^runSeed, uint64(i))
		out[i] = c
	}
	return out
}

// noJitter rejects specs that arm osjitter sources for workloads whose
// entry points model SMM noise only (rim, energy, drift, profiler).
func noJitter(sp scenario.Spec) error {
	if len(sp.JitterSources()) > 0 {
		return fmt.Errorf("does not support osjitter noise sources")
	}
	return nil
}

// fixedMachine rejects both osjitter sources and asymmetric SMT shares
// for workloads whose entry points build a fixed machine shape (rim,
// energy, drift, profiler) — silently ignoring either would misreport
// what was measured.
func fixedMachine(sp scenario.Spec) error {
	if err := noJitter(sp); err != nil {
		return err
	}
	if len(sp.Machine.SMTShares) > 0 {
		return fmt.Errorf("does not support machine.smt_shares")
	}
	return nil
}

// specSMTShares validates and copies the machine's asymmetric SMT
// shares (both modeled platforms have four physical cores).
func specSMTShares(sp scenario.Spec) ([]float64, error) {
	if len(sp.Machine.SMTShares) > 4 {
		return nil, fmt.Errorf("machine.smt_shares has %d entries; the modeled machines have 4 physical cores", len(sp.Machine.SMTShares))
	}
	if len(sp.Machine.SMTShares) == 0 {
		return nil, nil
	}
	return append([]float64(nil), sp.Machine.SMTShares...), nil
}

// singleNode rejects spec shapes that make no sense for the R410
// single-node workloads (convolve, unixbench, rim, energy, drift,
// profiler).
func singleNode(sp scenario.Spec) error {
	if sp.Machine.Nodes > 1 {
		return fmt.Errorf("runs on one node (got machine.nodes=%d)", sp.Machine.Nodes)
	}
	if sp.Machine.RanksPerNode > 1 {
		return fmt.Errorf("has no MPI ranks (got machine.ranks_per_node=%d)", sp.Machine.RanksPerNode)
	}
	if sp.Faults.Active() {
		return fmt.Errorf("fault plans apply to the nas workload only")
	}
	if sp.WatchdogS != 0 {
		return fmt.Errorf("the progress watchdog applies to the nas workload only")
	}
	return nil
}

// specCPUs applies the single-node CPU default (the paper's four
// physical cores).
func specCPUs(sp scenario.Spec) int {
	if sp.Machine.CPUs == 0 {
		return 4
	}
	return sp.Machine.CPUs
}
