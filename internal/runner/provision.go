package runner

import (
	"smistudy/internal/cluster"
	"smistudy/internal/obs"
	"smistudy/internal/sim"
)

// wireRun scopes tr to one sweep cell and threads it through a freshly
// built engine and cluster: all SMM, scheduler, network and fault events
// flow to it stamped with the run index, and — when tr is a bus, or a run
// scope over one as on the durable path — the engine's event counters
// feed its registry. Returns the scoped tracer for the caller's own
// emissions (nil stays nil).
func wireRun(tr obs.Tracer, run int, e *sim.Engine, cl *cluster.Cluster) obs.Tracer {
	if tr == nil {
		return nil
	}
	if b := obs.BusOf(tr); b != nil {
		e.SetProbe(b)
	}
	rt := obs.WithRun(tr, int32(run))
	cl.SetTracer(rt)
	return rt
}

// cellStart marks a sweep cell's beginning on the bus; seed identifies
// the cell in the trace.
func cellStart(rt obs.Tracer, seed int64) {
	if rt != nil {
		rt.Emit(obs.Event{Type: obs.EvSweepCellStart, Node: -1, A: seed})
	}
}

// cellFinish marks a sweep cell's end; the span covers the whole run.
func cellFinish(rt obs.Tracer, e *sim.Engine, seed int64) {
	if rt != nil {
		rt.Emit(obs.Event{Time: e.Now(), Dur: e.Now(), Type: obs.EvSweepCellFinish, Node: -1, A: seed})
	}
}
