package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"smistudy/internal/sim"
)

// placement is one thread's scheduling state as the rescheduler left it.
type placement struct {
	cpu           int // -1 when unassigned
	rate, osShare float64
}

func placementOf(t *Thread) placement {
	p := placement{cpu: -1, rate: t.rate, osShare: t.osShare}
	if t.cpu != nil {
		p.cpu = t.cpu.ID
	}
	return p
}

// checkFromScratch compares every thread's CPU, rate and OS share, and
// every CPU's queue length, with a from-scratch assign and rates on the
// same state. A placement input that skipped invalidation leaves a
// reused placement that differs from the fresh one.
func checkFromScratch(t *testing.T, m *Model, step string) {
	t.Helper()
	got := make([]placement, len(m.threads))
	for i, th := range m.threads {
		got[i] = placementOf(th)
	}
	queues := make([]int, len(m.logical))
	for i, l := range m.logical {
		queues[i] = len(l.threads)
	}
	m.assign()
	m.rates()
	for i, th := range m.threads {
		if want := placementOf(th); got[i] != want {
			t.Fatalf("after %s: thread %d has %+v, from scratch %+v", step, th.id, got[i], want)
		}
	}
	for i, l := range m.logical {
		if queues[i] != len(l.threads) {
			t.Fatalf("after %s: cpu %d queues %d threads, from scratch %d", step, i, queues[i], len(l.threads))
		}
	}
}

// TestPlacementReuseMatchesFromScratch drives HTT and non-HTT models
// through seeded random sequences of every operation that reschedules
// and checks, after each step, that reusing the placement across
// stalls, steals and profile changes gives exactly what recomputing it
// would.
func TestPlacementReuseMatchesFromScratch(t *testing.T) {
	profiles := []Profile{
		{CPI: 1},
		{CPI: 1.2, MissRate: 0.002, MissRateShared: 0.003},
		{CPI: 0.9, MissRate: 0.01, MissRateShared: 0.02, MemMissRate: 0.04},
	}
	for _, htt := range []bool{true, false} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("htt=%v/seed=%d", htt, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				e := sim.New(seed)
				m := MustNew(e, r410(htt))
				var threads []*Thread
				spawn := func() {
					threads = append(threads, m.NewThread("t", profiles[rng.Intn(len(profiles))]))
				}
				for i := 0; i < 10; i++ {
					spawn()
				}
				pick := func() *Thread { return threads[rng.Intn(len(threads))] }
				cpuID := func() int { return rng.Intn(m.NumLogical()) }
				for step := 0; step < 400; step++ {
					var name string
					switch op := rng.Intn(13); op {
					case 0, 1:
						name = "StartCompute"
						if th := pick(); !th.job.active {
							m.StartCompute(th, float64(rng.Int63n(2e8)+1), nil)
						}
					case 2:
						name = "job completion"
						if at := e.PeekTime(); at != sim.Forever {
							e.RunUntil(at)
						}
					case 3:
						name = "Remove"
						i := rng.Intn(len(threads))
						m.Remove(threads[i])
						threads = append(threads[:i], threads[i+1:]...)
						spawn()
					case 4:
						name = "Pin"
						if err := m.Pin(pick(), cpuID()); err != nil {
							t.Fatal(err)
						}
					case 5:
						name = "Unpin"
						m.Unpin(pick())
					case 6:
						name = "SetOnline"
						if err := m.SetOnline(cpuID(), rng.Intn(3) > 0); err != nil {
							t.Fatal(err)
						}
					case 7:
						name = "OnlineFirst"
						if err := m.OnlineFirst(cpuID() + 1); err != nil {
							t.Fatal(err)
						}
					case 8:
						name = "Stall"
						m.Stall()
					case 9:
						name = "Unstall"
						m.Unstall()
					case 10:
						name = "StallCPU"
						m.StallCPU(cpuID())
					case 11:
						name = "UnstallCPU"
						m.UnstallCPU(cpuID())
					case 12:
						name = "SetProfile"
						m.SetProfile(pick(), profiles[rng.Intn(len(profiles))])
					}
					checkFromScratch(t, m, fmt.Sprintf("step %d (%s)", step, name))
					e.RunUntil(e.Now() + sim.Time(rng.Int63n(int64(20*sim.Millisecond))))
					checkFromScratch(t, m, fmt.Sprintf("time after step %d", step))
				}
			})
		}
	}
}
