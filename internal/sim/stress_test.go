package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: random interleavings of scheduling and cancellation never
// fire a canceled event, never fire out of order, and fire everything
// that was not canceled.
func TestCancelRescheduleProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New(seed)
		const n = 100
		fired := make([]bool, n)
		canceled := make([]bool, n)
		events := make([]*Event, n)
		var lastTime Time = -1
		ok := true
		for i := 0; i < n; i++ {
			i := i
			events[i] = e.At(Time(rng.Int63n(1000)), func() {
				if canceled[i] {
					ok = false
				}
				if e.Now() < lastTime {
					ok = false
				}
				lastTime = e.Now()
				fired[i] = true
			})
		}
		// Cancel a random third.
		for i := 0; i < n/3; i++ {
			j := rng.Intn(n)
			canceled[j] = true
			e.Cancel(events[j])
		}
		e.Run()
		for i := 0; i < n; i++ {
			if fired[i] == canceled[i] {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a swarm of processes doing random sleeps always terminates
// with the clock at the maximum wake time, and total wakeups equal the
// scheduled count.
func TestProcSwarmProperty(t *testing.T) {
	prop := func(seed int64, n8 uint8) bool {
		e := New(seed)
		procs := int(n8%20) + 1
		wakeups := 0
		var maxWake Time
		for i := 0; i < procs; i++ {
			e.Go("p", func(p *Proc) {
				steps := int(e.Rand().Int63n(5)) + 1
				for s := 0; s < steps; s++ {
					d := Time(e.Rand().Int63n(100) + 1)
					p.Sleep(d)
					wakeups++
				}
				if p.Now() > maxWake {
					maxWake = p.Now()
				}
			})
		}
		e.Run()
		return e.Now() == maxWake && wakeups > 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Signals under churn: waiters added while a broadcast's wakeups are in
// flight belong to the next broadcast, not the current one.
func TestSignalGenerations(t *testing.T) {
	e := New(1)
	var sig Signal
	order := []string{}
	e.Go("first", func(p *Proc) {
		sig.Wait(p)
		order = append(order, "first-woke")
		sig.Wait(p) // re-wait: must need a second broadcast
		order = append(order, "first-again")
	})
	e.At(10, func() { sig.Broadcast(e) })
	e.At(20, func() {
		if sig.Len() != 1 {
			t.Errorf("re-waiter not queued: %d", sig.Len())
		}
		sig.Broadcast(e)
	})
	e.Run()
	if len(order) != 2 || order[1] != "first-again" {
		t.Fatalf("signal generations broken: %v", order)
	}
}

// A process killed during Shutdown must not resurrect pending events.
func TestShutdownMidEventStorm(t *testing.T) {
	e := New(1)
	var sig Signal
	for i := 0; i < 10; i++ {
		e.Go("stuck", func(p *Proc) { sig.Wait(p) })
	}
	for i := 0; i < 100; i++ {
		e.At(Time(i), func() {})
	}
	e.RunUntil(50)
	e.Shutdown()
	if e.Pending() != 0 {
		t.Fatalf("events survived Shutdown: %d", e.Pending())
	}
	e.Run() // must be a no-op, not a hang
}
