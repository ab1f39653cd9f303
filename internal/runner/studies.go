package runner

import (
	"smistudy/internal/cluster"
	"smistudy/internal/cpu"
	"smistudy/internal/faults"
	"smistudy/internal/kernel"
	"smistudy/internal/mpi"
	"smistudy/internal/nas"
	"smistudy/internal/obs"
	"smistudy/internal/sim"
	"smistudy/internal/smm"
)

// This file holds the provisioning cores of internal/experiments'
// special-purpose studies. They live here — not rerouted through
// RunNAS — because their measured values feed golden files: RunNAS
// folds run times through a float mean and back, which would perturb
// single-run measurements by an ULP and invalidate byte-compares.

// AmplifyRun measures one benchmark run under the given SMM level on a
// fresh engine, returning the run time and the per-node SMM residency.
// stats (optional) records the run and its engine events.
func AmplifyRun(seed int64, b nas.Benchmark, class nas.Class, nodes int, level smm.Level, smiScale float64, stats *ExecStats) (sim.Time, sim.Time, error) {
	e := sim.New(seed)
	par := cluster.Wyeast(nodes, false, level)
	par.Node.SMI.DurationScale = smiScale
	cl, err := cluster.New(e, par)
	if err != nil {
		return 0, 0, err
	}
	cl.StartSMI()
	w, err := mpi.NewWorld(cl, 1, mpi.DefaultParams())
	if err != nil {
		return 0, 0, err
	}
	res, err := nas.Run(w, nas.Spec{Bench: b, Class: class})
	stats.AddRun(e.Events())
	if err != nil {
		return 0, 0, err
	}
	return res.Time, cl.TotalSMMResidency() / sim.Time(len(cl.Nodes)), nil
}

// FaultedNAS runs one benchmark over an explicit fault schedule on a
// quiet (no-SMI) cluster, reporting the result plus the total SMM
// residency the faults injected. stats (optional) records the run and
// its engine events.
func FaultedNAS(seed int64, spec nas.Spec, nodes int, sched faults.Schedule, stats *ExecStats) (nas.Result, sim.Time, error) {
	e := sim.New(seed)
	cl, err := cluster.New(e, cluster.Wyeast(nodes, false, smm.SMMNone))
	if err != nil {
		return nas.Result{}, 0, err
	}
	par := mpi.DefaultParams()
	if sched.Lossy() {
		par = mpi.ReliableParams()
	}
	w, err := mpi.NewWorld(cl, 1, par)
	if err != nil {
		return nas.Result{}, 0, err
	}
	if !sched.Empty() {
		inj, err := cl.Inject(sched)
		if err != nil {
			return nas.Result{}, 0, err
		}
		w.SetFaultObserver(inj)
	}
	res, err := nas.Run(w, spec)
	stats.AddRun(e.Events())
	return res, cl.TotalSMMResidency(), err
}

// SimulateBSP runs a synthetic barrier-synchronized workload under
// fixed-duration long SMIs (1/s, 105 ms) — the model-vs-simulator
// cross-validation's measured side.
func SimulateBSP(seed int64, nodes int, step sim.Time, steps int, smiScale float64) sim.Time {
	e := sim.New(seed)
	par := cluster.Wyeast(nodes, false, smm.SMMLong)
	par.Node.SMI.DurMin = 105 * sim.Millisecond
	par.Node.SMI.DurMax = 105 * sim.Millisecond
	par.Node.SMI.DurationScale = smiScale
	par.Node.PerCPURendezvous = 0
	cl := cluster.MustNew(e, par)
	cl.StartSMI()
	stepOps := step.Seconds() * par.Node.CPU.BaseHz
	if nodes == 1 {
		var end sim.Time
		cl.Nodes[0].Kernel.Spawn("w", cpu.Profile{CPI: 1}, func(tk *kernel.Task) {
			for i := 0; i < steps; i++ {
				tk.Compute(stepOps)
			}
			end = tk.Gettime()
			e.Stop()
		})
		e.Run()
		return end
	}
	w := mpi.MustNewWorld(cl, 1, mpi.DefaultParams())
	return w.Run(cpu.Profile{CPI: 1}, func(r *mpi.Rank, tk *kernel.Task) {
		for i := 0; i < steps; i++ {
			tk.Compute(stepOps)
			r.Barrier(tk)
		}
	})
}

// MPIWorldConfig provisions a bare MPI world for microbenchmarks
// (cmd/mpibench): a Wyeast cluster with an explicit SMI driver config,
// optionally wired to a shared bus under a per-measurement run index.
type MPIWorldConfig struct {
	Nodes        int
	RanksPerNode int
	SMI          smm.DriverConfig
	Seed         int64
	// Tracer, when non-nil, observes this world's events under Run's
	// index (the caller increments Run per measurement so each world is
	// its own process group on the timeline).
	Tracer obs.Tracer
	Run    int32
}

// MPIWorld builds a fresh world on its own engine.
func MPIWorld(c MPIWorldConfig) *mpi.World {
	e := sim.New(c.Seed)
	par := cluster.Wyeast(c.Nodes, false, smm.SMMNone)
	par.Node.SMI = c.SMI
	cl := cluster.MustNew(e, par)
	var rt obs.Tracer
	if c.Tracer != nil {
		rt = obs.WithRun(c.Tracer, c.Run)
		cl.SetTracer(rt)
		if b, ok := c.Tracer.(*obs.Bus); ok {
			e.SetProbe(b)
		}
	}
	cl.StartSMI()
	w := mpi.MustNewWorld(cl, c.RanksPerNode, mpi.DefaultParams())
	w.SetTracer(rt)
	return w
}
