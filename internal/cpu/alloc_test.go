package cpu

import (
	"fmt"
	"testing"

	"smistudy/internal/sim"
)

// r410 is the processor of the paper's Dell R410 node.
func r410(htt bool) Params {
	return Params{
		PhysCores:     4,
		HTT:           htt,
		BaseHz:        2.4e9,
		MissPenalty:   180,
		MemBandwidth:  3.0e8,
		SMTEfficiency: 0.9,
	}
}

// TestRescheduleAllocFree pins the rescheduler's steady state at zero
// allocations, the way sim.TestHotPathAllocFree pins the engine's: SMM
// entry and exit, a per-CPU steal and a compute round trip from a
// process, on a warm R410 node with 8 computing threads.
func TestRescheduleAllocFree(t *testing.T) {
	for _, htt := range []bool{true, false} {
		t.Run(fmt.Sprintf("htt=%v", htt), func(t *testing.T) {
			e := sim.New(1)
			m := MustNew(e, r410(htt))
			prof := Profile{CPI: 1.2, MissRate: 0.002, MissRateShared: 0.003}
			for i := 0; i < 7; i++ {
				m.StartCompute(m.NewThread(fmt.Sprint("busy", i), prof), 1e18, nil)
			}
			// The eighth thread belongs to a process that computes in a
			// loop and stops the engine after every round trip, so one
			// Run is exactly one Compute.
			th := m.NewThread("proc", prof)
			e.Go("proc", func(p *sim.Proc) {
				for {
					th.Compute(p, 1e6)
					e.Stop()
				}
			})
			for _, tc := range []struct {
				name string
				fn   func()
			}{
				{"Stall/Unstall", func() { m.Stall(); m.Unstall() }},
				{"StallCPU/UnstallCPU", func() { m.StallCPU(3); m.UnstallCPU(3) }},
				{"Compute", e.Run},
			} {
				for i := 0; i < 4; i++ {
					tc.fn()
				}
				if got := testing.AllocsPerRun(200, tc.fn); got != 0 {
					t.Errorf("%s allocates %.1f allocs/op, want 0", tc.name, got)
				}
			}
			if done := th.OpsDone(); done < 200*1e6 {
				t.Fatalf("process thread completed %.0f ops, want at least 200 round trips", done)
			}
			e.Shutdown()
		})
	}
}
