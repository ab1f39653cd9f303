// Package fidelity is the paper-fidelity validation harness: it re-runs
// every reproduced artifact (Tables 1–5, Figures 1–2, the model,
// amplification and fault extension studies) through
// internal/experiments, aggregates each cell across repeated seeds, and
// judges the results against declarative tolerance gates — per-cell
// bands from internal/paperdata, aggregate error budgets, ordering and
// monotonicity predicates, and model-vs-simulator residuals.
//
// The output is a machine-readable Report plus a human diff table;
// cmd/smivalidate drives it and CI requires it. The gates are
// calibrated so the committed tree passes and a physics perturbation
// (Config.SMIScale ≠ 1 doubles or halves every SMI) trips them — the
// harness is tested against its own blind spot.
package fidelity

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"smistudy/internal/experiments"
	"smistudy/internal/obs"
	"smistudy/internal/paperdata"
	"smistudy/internal/runner"
)

// Config scopes one validation run.
type Config struct {
	// Full selects the full tier (all classes, paper-scale grids,
	// more seeds); the default quick tier shrinks grids for PR CI.
	Full bool
	// Only restricts the run to the named artifacts (nil = all).
	Only []string
	// Seeds are the deterministic base seeds each artifact is repeated
	// with; nil selects the tier default ({1,2}).
	Seeds []int64
	// Runs per cell within one seed; zero selects the tier default
	// (quick 1, full 3).
	Runs int
	// Workers fans independent sweep cells over OS threads.
	Workers int
	// SMIScale ≠ 0,1 deliberately perturbs the physics (multiplies
	// every SMI duration) so the gates can be shown to trip.
	SMIScale float64
	// Expectations overrides the built-in per-cell expectation set.
	Expectations *paperdata.ExpectationSet
	// GoldenDir, when set, byte-compares each artifact's canonical JSON
	// against <dir>/<artifact>.json. Quick tier with default seeds
	// only: goldens pin the deterministic quick run.
	GoldenDir string
	// Stats, when non-nil, accumulates execution accounting across every
	// artifact's cells.
	Stats *runner.ExecStats
}

// Tier names the configured tier.
func (c Config) Tier() string {
	if c.Full {
		return "full"
	}
	return "quick"
}

func (c Config) seeds() []int64 {
	if len(c.Seeds) > 0 {
		return c.Seeds
	}
	return []int64{1, 2}
}

func (c Config) runs() int {
	if c.Runs > 0 {
		return c.Runs
	}
	if c.Full {
		return 3
	}
	return 1
}

// expCfg builds the experiments config for one seed.
func (c Config) expCfg(seed int64) experiments.Config {
	return experiments.Config{
		Runs:     c.runs(),
		Seed:     seed,
		Quick:    !c.Full,
		Workers:  c.Workers,
		SMIScale: c.SMIScale,
		Stats:    c.Stats,
	}
}

func (c Config) expectations() (paperdata.ExpectationSet, error) {
	var s paperdata.ExpectationSet
	if c.Expectations != nil {
		s = *c.Expectations
	} else {
		s = paperdata.Expectations()
	}
	return s, s.Validate()
}

// artifact is one validatable reproduction target.
type artifact struct {
	name string
	run  func(cfg Config, exp paperdata.ExpectationSet, rep *Report) ([]byte, error)
}

// registry lists every artifact in report order.
func registry() []artifact {
	return []artifact{
		{"table1", func(c Config, e paperdata.ExpectationSet, r *Report) ([]byte, error) {
			return nasArtifact(c, e, r, "table1", experiments.Table1)
		}},
		{"table2", func(c Config, e paperdata.ExpectationSet, r *Report) ([]byte, error) {
			return nasArtifact(c, e, r, "table2", experiments.Table2)
		}},
		{"table3", func(c Config, e paperdata.ExpectationSet, r *Report) ([]byte, error) {
			return nasArtifact(c, e, r, "table3", experiments.Table3)
		}},
		{"table4", func(c Config, e paperdata.ExpectationSet, r *Report) ([]byte, error) {
			return httArtifact(c, r, "table4", experiments.Table4)
		}},
		{"table5", func(c Config, e paperdata.ExpectationSet, r *Report) ([]byte, error) {
			return httArtifact(c, r, "table5", experiments.Table5)
		}},
		{"figure1", func(c Config, e paperdata.ExpectationSet, r *Report) ([]byte, error) {
			return figure1Artifact(c, r)
		}},
		{"figure2", func(c Config, e paperdata.ExpectationSet, r *Report) ([]byte, error) {
			return figure2Artifact(c, r)
		}},
		{"model", func(c Config, e paperdata.ExpectationSet, r *Report) ([]byte, error) {
			return modelArtifact(c, r)
		}},
		{"amplification", func(c Config, e paperdata.ExpectationSet, r *Report) ([]byte, error) {
			return amplificationArtifact(c, r)
		}},
		{"faults", func(c Config, e paperdata.ExpectationSet, r *Report) ([]byte, error) {
			return faultsArtifact(c, r)
		}},
	}
}

// Artifacts lists the validatable artifact names, for -only validation
// and usage text.
func Artifacts() []string {
	var names []string
	for _, a := range registry() {
		names = append(names, a.name)
	}
	return names
}

func (c Config) selected(name string) bool {
	if len(c.Only) == 0 {
		return true
	}
	for _, o := range c.Only {
		if o == name {
			return true
		}
	}
	return false
}

// Validate runs every selected artifact and judges its gates.
func Validate(cfg Config) (*Report, error) {
	exp, err := cfg.expectations()
	if err != nil {
		return nil, err
	}
	if cfg.GoldenDir != "" && cfg.Full {
		return nil, fmt.Errorf("fidelity: golden comparison pins the quick tier; run -update-golden or drop -golden for full")
	}
	known := map[string]bool{}
	for _, a := range registry() {
		known[a.name] = true
	}
	for _, o := range cfg.Only {
		if !known[o] {
			return nil, fmt.Errorf("fidelity: unknown artifact %q (have %v)", o, Artifacts())
		}
	}
	rep := &Report{Tier: cfg.Tier(), Seeds: cfg.seeds(), Runs: cfg.runs(), SMIScale: cfg.SMIScale}
	for _, a := range registry() {
		if !cfg.selected(a.name) {
			continue
		}
		rep.Artifacts = append(rep.Artifacts, a.name)
		data, err := a.run(cfg, exp, rep)
		if err != nil {
			return nil, fmt.Errorf("fidelity: %s: %w", a.name, err)
		}
		if cfg.GoldenDir != "" {
			goldenCheck(rep, cfg.GoldenDir, a.name, data)
		}
	}
	if len(rep.Artifacts) == 0 {
		return nil, fmt.Errorf("fidelity: no artifacts selected")
	}
	return rep, nil
}

// goldenCheck byte-compares an artifact's canonical JSON against its
// committed golden. A missing golden fails: the gate exists to catch
// silent drift, and an absent baseline is drift nobody can see.
func goldenCheck(rep *Report, dir, name string, data []byte) {
	path := filepath.Join(dir, name+".json")
	want, err := os.ReadFile(path)
	if err != nil {
		rep.add(Check{Artifact: name, Name: "golden " + name + ".json", Kind: "golden",
			Tol: "byte-identical", Detail: fmt.Sprintf("read golden: %v (regenerate with -update-golden)", err)})
		return
	}
	pass := bytes.Equal(data, want)
	detail := ""
	if !pass {
		detail = fmt.Sprintf("regenerated JSON differs from %s (%d vs %d bytes); inspect, then -update-golden if intended", path, len(data), len(want))
	}
	rep.add(Check{Artifact: name, Name: "golden " + name + ".json", Kind: "golden",
		Got: float64(len(data)), Want: float64(len(want)),
		Tol: "byte-identical", Pass: pass, Detail: detail})
}

// UpdateGolden regenerates every selected artifact's canonical JSON
// into dir, plus a provenance manifest when one is supplied. It runs
// the same generators as Validate at the same configuration, so a
// subsequent Validate with GoldenDir set passes by construction.
func UpdateGolden(cfg Config, dir string, manifest *obs.Manifest) error {
	exp, err := cfg.expectations()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range registry() {
		if !cfg.selected(a.name) {
			continue
		}
		var scratch Report
		data, err := a.run(cfg, exp, &scratch)
		if err != nil {
			return fmt.Errorf("fidelity: %s: %w", a.name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, a.name+".json"), data, 0o644); err != nil {
			return err
		}
	}
	if manifest != nil {
		data, err := manifest.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
