package sim

import (
	"sync/atomic"
	"testing"
)

// countingProbe is the shape a real observability probe must have:
// atomic adds only, nothing that escapes.
type countingProbe struct {
	scheduled, fired, cancelled atomic.Int64
}

func (p *countingProbe) EngineEvent(op ProbeOp) {
	switch op {
	case ProbeSchedule:
		p.scheduled.Add(1)
	case ProbeFire:
		p.fired.Add(1)
	case ProbeCancel:
		p.cancelled.Add(1)
	}
}

// TestHotPathAllocFree pins the PR-2 guarantee the observability layer
// must not regress: steady-state schedule/fire/cancel allocate nothing,
// with the probe nil (the untraced fast path) and with a well-behaved
// probe attached.
func TestHotPathAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		probe Probe
	}{
		{"nil-probe", nil},
		{"counting-probe", &countingProbe{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(1)
			e.SetProbe(tc.probe)
			fn := func() {}
			// Warm the free list past the measured population.
			for i := 0; i < 64; i++ {
				e.After(1, fn)
			}
			e.Run()

			if got := testing.AllocsPerRun(200, func() {
				ev := e.At(e.Now()+10, fn)
				e.Cancel(ev)
				e.At(e.Now()+1, fn)
				e.RunUntil(e.Now() + 1)
			}); got != 0 {
				t.Fatalf("schedule/fire/cancel cycle allocates %.1f allocs/op, want 0", got)
			}
		})
	}
}

// TestProbeCounts checks the probe sees every queue operation exactly
// once, including events drained by Shutdown (which recycles without
// firing and must not count as fires).
func TestProbeCounts(t *testing.T) {
	e := New(1)
	var p countingProbe
	e.SetProbe(&p)
	fn := func() {}
	for i := 0; i < 10; i++ {
		e.After(Time(i+1), fn)
	}
	ev := e.After(100, fn)
	e.Cancel(ev)
	e.Cancel(ev) // double-cancel is a no-op and must not double-count
	e.RunUntil(50)

	if got := p.scheduled.Load(); got != 11 {
		t.Errorf("scheduled = %d, want 11", got)
	}
	if got := p.fired.Load(); got != 10 {
		t.Errorf("fired = %d, want 10", got)
	}
	if got := p.cancelled.Load(); got != 1 {
		t.Errorf("cancelled = %d, want 1", got)
	}
}

// TestSignalWaitAllocFree: a Broadcast keeps its waiter slice, so a
// process that waits on the same signal over and over allocates nothing
// once the slice has grown.
func TestSignalWaitAllocFree(t *testing.T) {
	e := New(1)
	var sig Signal
	e.Go("waiter", func(p *Proc) {
		for {
			sig.Wait(p)
			e.Stop()
		}
	})
	e.Run()
	round := func() {
		sig.Broadcast(e)
		e.Run()
	}
	round()
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Fatalf("wait/broadcast round allocates %.1f allocs/op, want 0", got)
	}
	if sig.Len() != 1 {
		t.Fatalf("%d waiters parked, want 1", sig.Len())
	}
	e.Shutdown()
}
