// Analytic fast-path dispatch: for cell regions where the closed-form
// model is proven within tolerance by the residual gate, the dispatcher
// serves Measurements without discrete simulation and falls back to
// internal/sim everywhere else.
//
// A region — every cell sharing a spec shape modulo name/seed/runs — is
// certified once: the closed-form model must cover the shape, a probe
// repetition and a shadow repetition at an unrelated seed must be
// byte-identical modulo the serialized seed (the empirical proof that
// the region is seed-independent: steady-state cells consume no engine
// randomness), and the probe must land within the residual tolerance
// of the closed-form prediction. Certified regions serve every further
// repetition by replication, which is byte-identical to simulating it;
// rejected regions simulate every cell.
//
// Only spec shapes that are provably steady-state are eligible at all:
// no SMM activity, no fault plan, and a workload that registered the
// replication hooks (EP-style embarrassingly-parallel phases and
// steady-state sweeps; see Workload.Replicate). Every decision — hit,
// miss with reason, certification with residual evidence — is traced on
// the obs bus and aggregated for the run manifest so smivalidate can
// audit exactly what the fast path did.
package runner

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"smistudy/internal/analytic"
	"smistudy/internal/obs"
	"smistudy/internal/scenario"
)

// FastPathMode selects how the dispatcher treats eligible regions.
type FastPathMode string

// Fast-path modes.
const (
	// FastOff never dispatches; every cell simulates.
	FastOff FastPathMode = "off"
	// FastAuto serves certified regions by exact replication —
	// byte-identical to simulating, proven per region at runtime.
	FastAuto FastPathMode = "auto"
)

// ParseFastPathMode validates a -fastpath flag value.
func ParseFastPathMode(s string) (FastPathMode, error) {
	switch FastPathMode(s) {
	case "", FastOff:
		return FastOff, nil
	case FastAuto:
		return FastAuto, nil
	}
	return "", fmt.Errorf("unknown fast-path mode %q (want off or auto)", s)
}

// DefaultResidualTol is the multiplicative tolerance the residual gate
// certifies regions against: the probe's simulated mean must lie within
// [1/(1+tol), 1+tol] of the closed-form prediction.
const DefaultResidualTol = 0.25

// shadowSeedOffset separates the shadow repetition's seed from the
// probe's. Any non-zero offset works — the certification *requires*
// the results to be identical — but a large odd constant keeps the two
// seeds unrelated even under the engine's seed derivation.
const shadowSeedOffset = 1000003

// minRegionRuns is the smallest repetition count worth certifying for:
// certification costs two simulations (probe + shadow), so a region
// serving fewer repetitions than that would be a net pessimization.
const minRegionRuns = 2

// region is the dispatcher's per-region certification record. The
// first cell of a region claims it and certifies while later cells
// block on ready; after close(ready) the record is immutable.
type region struct {
	ready    chan struct{}
	ok       bool
	reason   string // rejection reason when !ok
	proto    Measurement
	residual analytic.Residual
}

// Dispatcher decides, per dispatched cell, whether the analytic fast
// path serves it. One Dispatcher spans an entire invocation (all sweeps
// of a smibench run, every artifact of a smivalidate run): regions are
// keyed by the full spec shape, so evidence cached for one sweep is
// valid for every other cell of the same shape. Safe for concurrent use
// by any number of sweep workers.
type Dispatcher struct {
	mode FastPathMode
	tol  float64

	mu      sync.Mutex
	regions map[string]*region
	reasons map[string]int64

	hits      int64
	misses    int64
	probes    int64
	shadows   int64
	certified int64
	rejected  int64
}

// NewDispatcher builds a dispatcher for the given mode. tol ≤ 0 selects
// DefaultResidualTol. A FastOff dispatcher is valid and never serves.
func NewDispatcher(mode FastPathMode, tol float64) *Dispatcher {
	if tol <= 0 {
		tol = DefaultResidualTol
	}
	return &Dispatcher{
		mode:    mode,
		tol:     tol,
		regions: map[string]*region{},
		reasons: map[string]int64{},
	}
}

// Mode reports the dispatcher's mode.
func (d *Dispatcher) Mode() FastPathMode {
	if d == nil {
		return FastOff
	}
	return d.mode
}

// Stats snapshots the dispatcher's accounting as the manifest section
// smivalidate audits.
func (d *Dispatcher) Stats() *obs.FastPathStats {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := &obs.FastPathStats{
		Mode:      string(d.mode),
		Hits:      atomic.LoadInt64(&d.hits),
		Misses:    atomic.LoadInt64(&d.misses),
		Probes:    atomic.LoadInt64(&d.probes),
		Shadows:   atomic.LoadInt64(&d.shadows),
		Regions:   int64(len(d.regions)),
		Certified: atomic.LoadInt64(&d.certified),
		Rejected:  atomic.LoadInt64(&d.rejected),
	}
	if len(d.reasons) > 0 {
		st.MissReasons = make(map[string]int64, len(d.reasons))
		for k, v := range d.reasons {
			st.MissReasons[k] = v
		}
	}
	return st
}

// miss records a declined dispatch with its reason.
func (d *Dispatcher) miss(x Exec, reason string) {
	atomic.AddInt64(&d.misses, 1)
	d.mu.Lock()
	d.reasons[reason]++
	d.mu.Unlock()
	x.Stats.addMiss()
	if x.Tracer != nil {
		x.Tracer.Emit(obs.Event{Type: obs.EvFastPathMiss, Node: -1, Track: -1, Name: reason})
	}
}

// hit records a served dispatch.
func (d *Dispatcher) hit(x Exec, r *region, how string) {
	atomic.AddInt64(&d.hits, 1)
	x.Stats.addHit()
	if x.Tracer != nil {
		x.Tracer.Emit(obs.Event{
			Type: obs.EvFastPathHit, Node: -1, Track: -1, Name: how,
			A: logErrPPM(r.residual), B: int64(d.tol * 1e6),
		})
	}
}

// logErrPPM encodes a residual's log error in parts-per-million for the
// integer event fields.
func logErrPPM(r analytic.Residual) int64 {
	le := r.LogError()
	if math.IsInf(le, 1) {
		return -1
	}
	return int64(le * 1e6)
}

// eligible reports whether the dispatcher may serve this cell, with the
// recorded reason when it may not. Only steady-state shapes qualify:
// the proof obligations (seed independence, closed-form coverage) hold
// exactly when no SMM activity and no fault plan perturb the run.
func eligible(sp scenario.Spec, x Exec, w Workload) (bool, string) {
	if w.Replicate == nil || w.Predict == nil || w.Seconds == nil {
		return false, "workload"
	}
	if eff := sp.EffectiveSMM(); !(eff.Level == "" || eff.Level == "none") || eff.IntervalMS != 0 {
		return false, "smm"
	}
	if len(sp.JitterSources()) > 0 {
		return false, "noise"
	}
	if sp.Faults.Active() {
		return false, "faults"
	}
	if runsHint(sp, x) < minRegionRuns {
		return false, "runs"
	}
	return true, ""
}

// runsHint is the number of sibling repetitions this cell's region is
// expected to serve: the spec's own run count, or the pre-split parent
// count the durable layer forwards for single-repetition cells.
func runsHint(sp scenario.Spec, x Exec) int {
	if x.RunsHint > 0 {
		return x.RunsHint
	}
	if sp.Runs > 0 {
		return sp.Runs
	}
	return 1
}

// regionKey is the canonical spec shape modulo the per-repetition axes:
// name, seed and run count are zeroed, everything else (workload,
// machine, SMM plan, params) keys the region.
func regionKey(sp scenario.Spec) (string, error) {
	k := sp
	k.Name = ""
	k.Seed = 0
	k.Runs = 0
	data, err := k.JSON()
	return string(data), err
}

// try is the dispatch decision for one cell. served reports whether m
// is the cell's measurement; when false the caller simulates normally.
// Certification failures are misses, never errors: the fast path can
// decline, it can never fail a run.
func (d *Dispatcher) try(sp scenario.Spec, x Exec, w Workload) (m Measurement, served bool) {
	if d == nil || d.mode == FastOff {
		return Measurement{}, false
	}
	if ok, reason := eligible(sp, x, w); !ok {
		d.miss(x, reason)
		return Measurement{}, false
	}
	key, err := regionKey(sp)
	if err != nil {
		d.miss(x, "key")
		return Measurement{}, false
	}
	r := d.certifyOnce(key, sp, x, w)
	if !r.ok {
		d.miss(x, r.reason)
		return Measurement{}, false
	}
	m, err = d.serve(sp, w, r)
	if err != nil {
		d.miss(x, "serve")
		return Measurement{}, false
	}
	how := "replicate"
	if sp.Runs > 1 {
		how = "merge"
	}
	d.hit(x, r, how)
	return m, true
}

// certifyOnce returns the region record for key, certifying it on first
// use. Concurrent cells of one region block until the claiming cell's
// certification finishes; the two simulations it costs are charged to
// whichever worker got there first.
func (d *Dispatcher) certifyOnce(key string, sp scenario.Spec, x Exec, w Workload) *region {
	d.mu.Lock()
	r, ok := d.regions[key]
	if ok {
		d.mu.Unlock()
		<-r.ready
		return r
	}
	r = &region{ready: make(chan struct{})}
	d.regions[key] = r
	d.mu.Unlock()
	d.certify(r, sp, x, w)
	close(r.ready)
	return r
}

// certify runs the region's proof obligations: closed-form coverage,
// probe simulation, shadow simulation at an unrelated seed with
// byte-identical replication, and the residual gate against the
// prediction. Coverage is checked first, so a shape the model does not
// cover is rejected without spending any simulation on it.
func (d *Dispatcher) certify(r *region, sp scenario.Spec, x Exec, w Workload) {
	reject := func(reason string) {
		r.ok = false
		r.reason = reason
		atomic.AddInt64(&d.rejected, 1)
		if x.Tracer != nil {
			x.Tracer.Emit(obs.Event{Type: obs.EvFastPathCertify, Node: -1, Track: -1,
				Name: "rejected:" + reason, A: logErrPPM(r.residual), B: int64(d.tol * 1e6)})
		}
	}

	probe := sp
	probe.Runs = 1
	if probe.Seed == 0 {
		probe.Seed = 1
	}
	predicted, err := w.Predict(probe)
	if err != nil {
		reject("no_model")
		return
	}
	sx := d.simExec(x)
	atomic.AddInt64(&d.probes, 1)
	pm, err := w.Run(probe, sx)
	if err != nil {
		reject("probe_error")
		return
	}

	shadow := probe
	shadow.Seed = probe.Seed + shadowSeedOffset
	atomic.AddInt64(&d.shadows, 1)
	sm, err := w.Run(shadow, sx)
	if err != nil {
		reject("shadow_error")
		return
	}
	// Both measurements are compared unstamped, exactly as w.Run
	// returned them; RunWith stamps Name/Workload only on what it
	// finally returns.
	rep, err := w.Replicate(probe, sm)
	if err != nil {
		reject("replicate_error")
		return
	}
	pj, err1 := pm.JSON()
	rj, err2 := rep.JSON()
	if err1 != nil || err2 != nil {
		reject("encode_error")
		return
	}
	if !bytes.Equal(pj, rj) {
		reject("seed_dependent")
		return
	}

	simulated, ok := w.Seconds(pm)
	if !ok {
		reject("no_observable")
		return
	}
	r.residual = analytic.Residual{Simulated: simulated, Predicted: predicted}
	if !r.residual.Within(d.tol) {
		reject("residual")
		return
	}

	r.ok = true
	r.proto = pm
	atomic.AddInt64(&d.certified, 1)
	if x.Tracer != nil {
		x.Tracer.Emit(obs.Event{Type: obs.EvFastPathCertify, Node: -1, Track: -1,
			Name: "certified", A: logErrPPM(r.residual), B: int64(d.tol * 1e6)})
	}
}

// simExec is the execution context certification simulations run under:
// sequential, undispatched (no recursion), with the caller's stats and
// tracer so probe work is accounted and visible.
func (d *Dispatcher) simExec(x Exec) Exec {
	return Exec{Workers: 1, Tracer: x.Tracer, Stats: x.Stats}
}

// serve builds the cell's measurement from the certified region: every
// repetition is replicated from the prototype (multi-run cells are
// synthesized through the workload's own Split/Merge arithmetic, which
// the split tests pin byte-identical to a direct run).
func (d *Dispatcher) serve(sp scenario.Spec, w Workload, r *region) (Measurement, error) {
	if sp.Runs <= 1 {
		return w.Replicate(sp, r.proto)
	}
	cells := w.Split(sp)
	if len(cells) == 0 || w.Merge == nil {
		return Measurement{}, fmt.Errorf("runner: workload %s cannot split %d runs", sp.Workload, sp.Runs)
	}
	parts := make([]Measurement, len(cells))
	for i, c := range cells {
		p, err := w.Replicate(c, r.proto)
		if err != nil {
			return Measurement{}, err
		}
		parts[i] = p
	}
	return w.Merge(sp, parts)
}

// ReasonsSorted lists recorded miss reasons in deterministic order, for
// rendering.
func (d *Dispatcher) ReasonsSorted() []string {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	keys := make([]string, 0, len(d.reasons))
	for k := range d.reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
