// Package cluster assembles complete simulated machines — processor,
// clocks, kernel, SMM machinery — and wires any number of them to an
// interconnect fabric. It provides presets for the two platforms in the
// paper: the 16-node "Wyeast" Xeon E5520 cluster used for the MPI study
// and the Dell PowerEdge R410 (Xeon E5620) used for the multithreaded
// study.
package cluster

import (
	"fmt"

	"smistudy/internal/clock"
	"smistudy/internal/cpu"
	"smistudy/internal/faults"
	"smistudy/internal/kernel"
	"smistudy/internal/netsim"
	"smistudy/internal/obs"
	"smistudy/internal/perturb"
	"smistudy/internal/sim"
	"smistudy/internal/smm"
)

// NodeParams configures one node.
type NodeParams struct {
	CPU    cpu.Params
	TSCHz  float64
	Jiffy  sim.Time
	Kernel kernel.Params
	SMI    smm.DriverConfig
	// PerCPURendezvous is the extra SMM residency per online logical
	// CPU per SMI (context save/restore rendezvous cost).
	PerCPURendezvous sim.Time
	// Jitter lists OS-jitter sources provisioned on every node
	// alongside the SMI driver. Each node mixes its index into the
	// configured seed, so multi-node clusters never tick in lockstep
	// (the core-scoped analog of the SMI driver's PhaseJitter).
	Jitter []perturb.JitterConfig
}

// Params configures a whole cluster.
type Params struct {
	Nodes  int
	Node   NodeParams
	Fabric netsim.Params
}

// Node is one assembled machine.
type Node struct {
	Index  int
	CPU    *cpu.Model
	Clock  *clock.Node
	Kernel *kernel.Kernel
	SMM    *smm.Controller
	SMI    *smm.Driver
	Jitter []*perturb.Jitter
}

// Sources returns every perturbation source provisioned on the node —
// the SMI driver first, then the jitter sources — through the generic
// noise-source interface. Detectors score against the union of these
// sources' ground truth.
func (n *Node) Sources() []perturb.Source {
	out := make([]perturb.Source, 0, 1+len(n.Jitter))
	out = append(out, n.SMI)
	for _, j := range n.Jitter {
		out = append(out, j)
	}
	return out
}

// Cluster is a set of nodes over a fabric, sharing one engine.
type Cluster struct {
	Eng    *sim.Engine
	Nodes  []*Node
	Fabric *netsim.Fabric

	tr obs.Tracer // nil unless the run is traced
}

// SetTracer attaches an observability tracer to the whole machine:
// every node's SMM controller, kernel and scheduler, the fabric, and
// any injector armed by a later Inject. Call before the run starts; a
// nil tracer leaves everything untraced.
func (c *Cluster) SetTracer(tr obs.Tracer) {
	c.tr = tr
	c.Fabric.SetTracer(tr)
	for _, n := range c.Nodes {
		n.SMM.SetTracer(tr, n.Index)
		n.Kernel.SetTracer(tr, n.Index)
		for _, j := range n.Jitter {
			j.SetTracer(tr, n.Index)
		}
	}
}

// Tracer reports the cluster's attached tracer (nil when untraced).
func (c *Cluster) Tracer() obs.Tracer { return c.tr }

// New assembles a cluster on engine e.
func New(e *sim.Engine, par Params) (*Cluster, error) {
	if par.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: %d nodes", par.Nodes)
	}
	fabric, err := netsim.New(e, par.Nodes, par.Fabric)
	if err != nil {
		return nil, err
	}
	c := &Cluster{Eng: e, Fabric: fabric}
	for i := 0; i < par.Nodes; i++ {
		if err := c.addNode(e, i, par.Node); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// addNode assembles node i on engine e.
func (c *Cluster) addNode(e *sim.Engine, i int, np NodeParams) error {
	cpum, err := cpu.New(e, np.CPU)
	if err != nil {
		return err
	}
	clk := clock.New(e, np.TSCHz, np.Jiffy)
	kern := kernel.New(e, cpum, clk, np.Kernel)
	ctrl := smm.NewController(e, cpum, clk)
	ctrl.SetPerCPURendezvous(np.PerCPURendezvous)
	drv := smm.NewDriver(e, ctrl, clk, np.SMI)
	node := &Node{
		Index: i, CPU: cpum, Clock: clk, Kernel: kern, SMM: ctrl, SMI: drv,
	}
	for _, jc := range np.Jitter {
		jc.Seed = perturb.DeriveSeed(jc.Seed, uint64(i))
		j, err := perturb.NewJitter(e, cpum, jc)
		if err != nil {
			return err
		}
		node.Jitter = append(node.Jitter, j)
	}
	c.Nodes = append(c.Nodes, node)
	return nil
}

// MustNew is New but panics on error.
func MustNew(e *sim.Engine, par Params) *Cluster {
	c, err := New(e, par)
	if err != nil {
		panic(err)
	}
	return c
}

// Inject arms a fault schedule across the cluster: link faults hook the
// fabric, node faults drive the per-node CPU stall machinery and SMI
// drivers. Fault times are relative to the current engine time. The
// returned injector doubles as an mpi.FaultObserver for the progress
// watchdog.
func (c *Cluster) Inject(sched faults.Schedule) (*faults.Injector, error) {
	ctl := make([]faults.NodeControl, len(c.Nodes))
	for i, n := range c.Nodes {
		ctl[i] = faults.NodeControl{CPU: n.CPU, SMI: n.SMI}
	}
	in, err := faults.New(c.Eng, c.Fabric, ctl, sched)
	if err != nil {
		return nil, err
	}
	if c.tr != nil {
		in.SetTracer(c.tr)
	}
	return in, nil
}

// StartSMI arms every perturbation source on every node: the SMI
// driver plus any provisioned jitter sources. (The name predates the
// noise-family abstraction; StartNoise is the family-neutral alias.)
func (c *Cluster) StartSMI() { c.StartNoise() }

// StopSMI disarms every perturbation source on every node.
func (c *Cluster) StopSMI() { c.StopNoise() }

// StartNoise arms every perturbation source on every node.
func (c *Cluster) StartNoise() {
	for _, n := range c.Nodes {
		for _, s := range n.Sources() {
			s.Start()
		}
	}
}

// StopNoise disarms every perturbation source on every node.
func (c *Cluster) StopNoise() {
	for _, n := range c.Nodes {
		for _, s := range n.Sources() {
			s.Stop()
		}
	}
}

// TotalSMMResidency sums SMM residency over all nodes.
func (c *Cluster) TotalSMMResidency() sim.Time {
	var total sim.Time
	for _, n := range c.Nodes {
		total += n.SMM.Stats().TotalResidency
	}
	return total
}

// TotalStolen sums the residency the given noise family has stolen
// across all nodes.
func (c *Cluster) TotalStolen(family string) sim.Time {
	var total sim.Time
	for _, n := range c.Nodes {
		for _, s := range n.Sources() {
			if s.Meta().Family == family {
				total += s.Stolen()
			}
		}
	}
	return total
}

// Wyeast returns the parameters of the paper's MPI-study cluster: nodes
// with a quad-core Xeon E5520 at 2.27 GHz (HTT configurable), CentOS-era
// kernel costs, gigabit fabric, and the requested SMI configuration. The
// paper's driver fires one SMI per second (period 1000 jiffies, 1 ms
// jiffy).
func Wyeast(nodes int, htt bool, level smm.Level) Params {
	return Params{
		Nodes: nodes,
		Node: NodeParams{
			CPU: cpu.Params{
				PhysCores:     4,
				HTT:           htt,
				BaseHz:        2.27e9,
				MissPenalty:   180,
				MemBandwidth:  4.2e8, // ~27 GB/s ÷ 64 B lines
				SMTEfficiency: 0.9,
			},
			TSCHz:  2.27e9,
			Jiffy:  sim.Millisecond,
			Kernel: kernel.DefaultParams(),
			SMI: smm.DriverConfig{
				Level:         level,
				PeriodJiffies: 1000,
				PhaseJitter:   true,
			},
			PerCPURendezvous: 400 * sim.Microsecond,
		},
		Fabric: netsim.GigabitEthernet(),
	}
}

// R410 returns the parameters of the paper's multithreaded-study machine:
// a Dell PowerEdge R410 with a quad-core Xeon E5620 at 2.4 GHz with HTT,
// running a tickless Fedora kernel. SMI level and period are provided by
// the experiment (the Convolve/UnixBench studies sweep the period).
func R410(smi smm.DriverConfig) Params {
	return Params{
		Nodes: 1,
		Node: NodeParams{
			CPU: cpu.Params{
				PhysCores:     4,
				HTT:           true,
				BaseHz:        2.4e9,
				MissPenalty:   180,
				MemBandwidth:  3.0e8, // ~19 GB/s of 64 B lines
				SMTEfficiency: 0.9,
			},
			TSCHz:            2.4e9,
			Jiffy:            sim.Millisecond,
			Kernel:           kernel.DefaultParams(),
			SMI:              smi,
			PerCPURendezvous: 400 * sim.Microsecond,
		},
		Fabric: netsim.GigabitEthernet(),
	}
}
