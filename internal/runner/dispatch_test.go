package runner

import (
	"bytes"
	"math"
	"testing"

	"smistudy/internal/scenario"
)

func epSpec(runs int) scenario.Spec {
	return scenario.Spec{
		Workload: "nas",
		Machine:  scenario.Machine{Nodes: 2, RanksPerNode: 1},
		Runs:     runs,
		Params:   scenario.Params{Bench: "EP", Class: "S"},
	}
}

// The fast path must be invisible in auto mode: a multi-run EP cell
// served by replication is byte-identical to the same cell simulated
// with the dispatcher off.
func TestFastPathAutoByteIdentical(t *testing.T) {
	sp := epSpec(6)

	base, err := RunWith(sp, Exec{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	bj, err := base.JSON()
	if err != nil {
		t.Fatalf("baseline json: %v", err)
	}

	d := NewDispatcher(FastAuto, 0)
	st := &ExecStats{}
	fast, err := RunWith(sp, Exec{Dispatch: d, Stats: st})
	if err != nil {
		t.Fatalf("fastpath: %v", err)
	}
	fj, err := fast.JSON()
	if err != nil {
		t.Fatalf("fastpath json: %v", err)
	}
	if !bytes.Equal(bj, fj) {
		t.Fatalf("fast-path measurement diverged from simulation:\n-- off --\n%s\n-- auto --\n%s", bj, fj)
	}

	fs := d.Stats()
	if fs.Hits != 1 || fs.Misses != 0 {
		t.Fatalf("want 1 hit / 0 misses, got %d/%d (%v)", fs.Hits, fs.Misses, fs.MissReasons)
	}
	if fs.Probes != 1 || fs.Shadows != 1 || fs.Certified != 1 || fs.Rejected != 0 {
		t.Fatalf("certification accounting off: %+v", fs)
	}
	// The probe and shadow are the only two simulated repetitions; the
	// other four of the six were replicated.
	if got := st.RunsValue(); got != 2 {
		t.Fatalf("want 2 simulated runs (probe+shadow), got %d", got)
	}
	if st.EventsValue() == 0 {
		t.Fatal("probe simulations should have accumulated engine events")
	}
	if st.HitsValue() != 1 || st.MissesValue() != 0 {
		t.Fatalf("exec stats want 1 hit / 0 misses, got %d/%d", st.HitsValue(), st.MissesValue())
	}
}

// A second cell of the same region reuses the cached certification:
// no further probe or shadow simulations.
func TestFastPathRegionEvidenceCached(t *testing.T) {
	d := NewDispatcher(FastAuto, 0)
	sp := epSpec(6)
	if _, err := RunWith(sp, Exec{Dispatch: d}); err != nil {
		t.Fatal(err)
	}
	// Different name and seed, same shape: same region.
	sp2 := sp
	sp2.Name = "again"
	sp2.Seed = 41
	if _, err := RunWith(sp2, Exec{Dispatch: d}); err != nil {
		t.Fatal(err)
	}
	fs := d.Stats()
	if fs.Probes != 1 || fs.Shadows != 1 || fs.Regions != 1 {
		t.Fatalf("region evidence not cached: %+v", fs)
	}
	if fs.Hits != 2 {
		t.Fatalf("want 2 hits, got %d", fs.Hits)
	}
}

// Ineligible shapes decline with the documented reasons and fall back
// to simulation untouched.
func TestFastPathDeclineReasons(t *testing.T) {
	cases := []struct {
		name   string
		spec   scenario.Spec
		reason string
	}{
		{"smm", func() scenario.Spec {
			sp := epSpec(6)
			sp.SMM.Level = "short"
			return sp
		}(), "smm"},
		{"faults", func() scenario.Spec {
			sp := epSpec(6)
			// A degrade scheduled after the run ends: active plan, no
			// effect on the runs themselves.
			sp.Faults = &scenario.FaultPlan{DegradeAtS: 1000, DegradeForS: 1, DegradeSlow: 2}
			return sp
		}(), "faults"},
		{"runs", epSpec(1), "runs"},
		{"workload", scenario.Spec{
			Workload: "convolve",
			Runs:     6,
			Params:   scenario.Params{Cache: "friendly"},
		}, "workload"},
		{"no_model", func() scenario.Spec {
			sp := epSpec(6)
			sp.Params.Bench = "BT" // seed-independent but outside the EP closed form
			sp.Machine.Nodes = 1
			return sp
		}(), "no_model"},
		{"no_model_htt", func() scenario.Spec {
			sp := epSpec(6)
			sp.Machine.HTT = true // the EP closed form assumes no hyper-threading
			return sp
		}(), "no_model"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDispatcher(FastAuto, 0)
			if _, err := RunWith(tc.spec, Exec{Dispatch: d}); err != nil {
				t.Fatalf("run: %v", err)
			}
			fs := d.Stats()
			if fs.Hits != 0 {
				t.Fatalf("ineligible spec was served (%+v)", fs)
			}
			if fs.MissReasons[tc.reason] == 0 {
				t.Fatalf("want miss reason %q, got %v", tc.reason, fs.MissReasons)
			}
			// Model coverage is checked before any certification
			// simulation is spent on the region.
			if tc.reason == "no_model" && (fs.Rejected != 1 || fs.Probes != 0 || fs.Shadows != 0) {
				t.Fatalf("want a no_model rejection without probe or shadow runs, got %+v", fs)
			}
		})
	}
}

// The durable layer's RunsHint keeps split single-repetition cells
// eligible: the region decision follows the parent's run count.
func TestFastPathRunsHint(t *testing.T) {
	d := NewDispatcher(FastAuto, 0)
	parent := epSpec(6)
	w, _ := Lookup("nas")
	for _, cell := range w.Split(parent) {
		if _, err := RunWith(cell, Exec{Dispatch: d, RunsHint: parent.Runs}); err != nil {
			t.Fatal(err)
		}
	}
	fs := d.Stats()
	if fs.Hits != 6 || fs.Probes != 1 || fs.Shadows != 1 {
		t.Fatalf("want 6 hits from one certification, got %+v", fs)
	}
}

// An over-tight tolerance rejects the region on the residual gate and
// the sweep silently simulates — declining must never fail a run.
func TestFastPathResidualReject(t *testing.T) {
	d := NewDispatcher(FastAuto, 1e-12)
	sp := epSpec(6)
	m, err := RunWith(sp, Exec{Dispatch: d})
	if err != nil {
		t.Fatal(err)
	}
	if m.NAS == nil || len(m.NAS.Times) != 6 {
		t.Fatal("fallback simulation did not run")
	}
	fs := d.Stats()
	if fs.Rejected != 1 || fs.Certified != 0 {
		t.Fatalf("want residual rejection, got %+v", fs)
	}
	if fs.MissReasons["residual"] == 0 {
		t.Fatalf("want residual miss reason, got %v", fs.MissReasons)
	}
}

// The EP closed form is exact for one solo rank (the calibration
// identity) and within the gate for small clusters.
func TestPredictEPCloseToSimulation(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		sp := epSpec(1)
		sp.Machine.Nodes = nodes
		predicted, err := predictNASSpec(sp)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		m, err := RunWith(sp, Exec{})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		le := math.Abs(math.Log(m.NAS.Seconds() / predicted))
		if le > math.Log(1+DefaultResidualTol) {
			t.Fatalf("nodes=%d: prediction %.4fs vs simulated %.4fs (log error %.4f)",
				nodes, predicted, m.NAS.Seconds(), le)
		}
	}
}
