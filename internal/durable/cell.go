package durable

import (
	"context"
	"sync/atomic"

	"smistudy/internal/runner"
	"smistudy/internal/scenario"
)

// SpecPlan is one spec's decomposition into durable execution units:
// the content address its cells are filed under, the per-repetition
// cell specs (the spec itself when unsplittable), and the workload's
// Merge hook when the cells need reassembly. It is the planning half of
// RunSpecs, exported so callers that schedule cells themselves — the
// sweep server — share the exact store layout of the CLI path: a cell
// executed by either is a cache hit for both.
type SpecPlan struct {
	// Key is the parent spec's content address (see Key).
	Key string
	// Cells are the execution units, in run-index order; cell i is
	// stored under (Key, i).
	Cells []scenario.Spec
	// Merge reassembles the parent measurement from the cells'
	// measurements. Nil when Cells is the spec itself (pass through).
	Merge func(scenario.Spec, []runner.Measurement) (runner.Measurement, error)
}

// PlanSpec validates a spec and decomposes it into its durable cells,
// recording the key's canonical spec document in the store (best-effort
// report metadata) when one is given.
func PlanSpec(sp scenario.Spec, store *Store) (SpecPlan, error) {
	if err := runner.Validate(sp); err != nil {
		return SpecPlan{}, err
	}
	key, err := Key(sp)
	if err != nil {
		return SpecPlan{}, err
	}
	if store != nil {
		// Record the key's canonical spec alongside its objects so a
		// report can walk the journal back to what each cell measured.
		// Best-effort: a failed spec write costs report metadata, not
		// results, so it must not fail the sweep.
		if data, jerr := sp.JSON(); jerr == nil {
			_ = store.PutSpec(key, data)
		}
	}
	w, _ := runner.Lookup(sp.Workload)
	var cells []scenario.Spec
	if w.Split != nil {
		cells = w.Split(sp)
	}
	if len(cells) == 0 {
		return SpecPlan{Key: key, Cells: []scenario.Spec{sp}}, nil
	}
	return SpecPlan{Key: key, Cells: cells, Merge: w.Merge}, nil
}

// CellRequest identifies one durable execution unit for callers that
// schedule cells themselves.
type CellRequest struct {
	// Spec is the cell's (single-repetition) spec, from SpecPlan.Cells.
	Spec scenario.Spec
	// Key and Run file the cell in the store: the parent spec's content
	// address and the cell's index in SpecPlan.Cells.
	Key string
	Run int
	// Global is the trace run index stamped on the cell's events.
	Global int32
}

// CellResult is one cell's outcome. The measurement may be non-zero
// alongside an error (fault-scenario NAS cells report partial
// accounting).
type CellResult struct {
	M runner.Measurement
	// Cached reports a byte-identical replay from the store (zero
	// simulation work).
	Cached bool
	Err    error
}

// RunCell executes one cell end to end with the full durable contract —
// store replay when Resume is set, wall-clock deadline, bounded
// transient-error retries, panic isolation, checkpoint on success —
// accumulating accounting into st (optional). It is RunSpecs's per-cell
// engine exposed for external schedulers.
func RunCell(ctx context.Context, req CellRequest, o Options, st *Stats) CellResult {
	if st == nil {
		st = &Stats{}
	}
	atomic.AddInt64(&st.Cells, 1)
	it := item{
		spec:    req.Spec,
		key:     req.Key,
		cellIdx: req.Run,
		global:  int(req.Global),
	}
	r := runItem(ctx, it, o, st)
	return CellResult{M: r.m, Cached: r.cached, Err: r.err}
}
