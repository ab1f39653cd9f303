package sim

import (
	"testing"
)

func TestProcSleep(t *testing.T) {
	e := New(1)
	var wakeups []Time
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Millisecond)
			wakeups = append(wakeups, p.Now())
		}
	})
	e.Run()
	want := []Time{10 * Millisecond, 20 * Millisecond, 30 * Millisecond}
	if len(wakeups) != len(want) {
		t.Fatalf("wakeups = %v, want %v", wakeups, want)
	}
	for i := range want {
		if wakeups[i] != want[i] {
			t.Fatalf("wakeups = %v, want %v", wakeups, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New(1)
	var order []string
	e.Go("a", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20)
		order = append(order, "a30")
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(20)
		order = append(order, "b20")
	})
	e.Run()
	if len(order) != 3 || order[0] != "a10" || order[1] != "b20" || order[2] != "a30" {
		t.Fatalf("interleaving wrong: %v", order)
	}
}

// TestProcWaitWake: a process parked with Park resumes when another
// process calls its Resumer, at that caller's time.
func TestProcWaitWake(t *testing.T) {
	e := New(1)
	var resumedAt Time
	var resume func()
	e.Go("waiter", func(p *Proc) {
		resume = p.Resumer()
		p.Park()
		resumedAt = p.Now()
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(5)
		resume()
	})
	e.Run()
	if resumedAt != 5 {
		t.Fatalf("parked process resumed at %v, want 5", resumedAt)
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := New(1)
	var sig Signal
	woken := 0
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) {
			sig.Wait(p)
			woken++
		})
	}
	e.At(50, func() { sig.Broadcast(e) })
	e.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
	if sig.Len() != 0 {
		t.Fatalf("signal still has %d waiters", sig.Len())
	}
}

func TestShutdownReleasesParkedProcs(t *testing.T) {
	e := New(1)
	var sig Signal
	cleaned := false
	e.Go("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		sig.Wait(p) // never broadcast
	})
	e.RunUntil(100)
	if len(e.procs) != 1 {
		t.Fatalf("procs = %d, want 1 parked", len(e.procs))
	}
	e.Shutdown()
	if len(e.procs) != 0 {
		t.Fatalf("procs = %d after Shutdown, want 0", len(e.procs))
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run on kill")
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := New(1)
	e.Go("bomb", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	defer func() {
		if recover() == nil {
			t.Error("process panic did not propagate to Run")
		}
	}()
	e.Run()
}

func TestProcIdentity(t *testing.T) {
	e := New(1)
	var p1, p2 *Proc
	p1 = e.Go("first", func(p *Proc) {})
	p2 = e.Go("second", func(p *Proc) {})
	if p1.Name() != "first" || p2.Name() != "second" {
		t.Fatal("names wrong")
	}
	if p1.ID() == p2.ID() {
		t.Fatal("ids not unique")
	}
	if p1.Engine() != e {
		t.Fatal("engine accessor wrong")
	}
	e.Run()
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() []int {
		e := New(7)
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			e.Go("p", func(p *Proc) {
				d := Time(e.Rand().Int63n(100))
				p.Sleep(d)
				order = append(order, i)
			})
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic process order at %d", i)
		}
	}
}
