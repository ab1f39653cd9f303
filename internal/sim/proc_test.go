package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
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

// TestKilledProcessDoesNotRunLoop: a process that parks again while
// Shutdown kills it (here in a deferred Sleep) keeps unwinding: the
// rest of its deferred calls run, and it never runs the event loop
// under Shutdown.
func TestKilledProcessDoesNotRunLoop(t *testing.T) {
	e := New(1)
	var sig Signal
	cleaned := false
	e.Go("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		defer p.Sleep(1)
		sig.Wait(p)
	})
	e.At(10, func() { t.Error("event fired during Shutdown") })
	e.RunUntil(5)
	if leaked := e.Shutdown(); leaked != 1 {
		t.Fatalf("Shutdown killed %d processes, want 1", leaked)
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

// waitGoroutines waits for the goroutine count to fall back to base: a
// killed process hands control back before its goroutine has exited.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// runRecover runs e and returns the value Run panicked with, if any.
func runRecover(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

// TestShutdownKillsUnstartedProcess: a process whose first wake never
// fired is killed and counted like a parked one, whether the engine
// never ran or a Stop ended the run before the process started.
func TestShutdownKillsUnstartedProcess(t *testing.T) {
	for _, stopFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("stop-first=%v", stopFirst), func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := New(1)
			if stopFirst {
				e.At(0, e.Stop)
			}
			ran := false
			e.Go("unstarted", func(p *Proc) { ran = true })
			if stopFirst {
				e.Run()
			}
			if leaked := e.Shutdown(); leaked != 1 {
				t.Fatalf("Shutdown killed %d processes, want 1", leaked)
			}
			if len(e.procs) != 0 {
				t.Fatalf("procs = %d after Shutdown, want 0", len(e.procs))
			}
			if ran {
				t.Fatal("killed process ran its body")
			}
			waitGoroutines(t, base)
		})
	}
}

// TestCallbackPanicOnProcessGoroutine: a process that parks runs the
// event loop itself, so a later callback panics on its goroutine. Run's
// caller must see the same panic value, and the process stays parked
// for Shutdown to reap.
func TestCallbackPanicOnProcessGoroutine(t *testing.T) {
	e := New(1)
	var sig Signal
	e.Go("waiter", func(p *Proc) {
		p.Sleep(5)
		sig.Wait(p)
	})
	boom := errors.New("callback boom")
	e.At(10, func() { panic(boom) })
	if r := runRecover(e); r != boom {
		t.Fatalf("Run panicked with %v, want %v", r, boom)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v after the panic, want 10", e.Now())
	}
	if leaked := e.Shutdown(); leaked != 1 {
		t.Fatalf("Shutdown killed %d processes, want the 1 parked", leaked)
	}
}

// TestProcPanicAfterHandoff: a process resumed by another process (not
// by Run's caller) panics, and Run still reports it.
func TestProcPanicAfterHandoff(t *testing.T) {
	e := New(1)
	var resumeB func()
	e.Go("b", func(p *Proc) {
		resumeB = p.Resumer()
		p.Park()
		panic("boom")
	})
	e.Go("a", func(p *Proc) {
		p.Sleep(1)
		resumeB()
		p.Park()
	})
	want := `sim: process "b" panicked: boom`
	if r := runRecover(e); r != want {
		t.Fatalf("Run panicked with %v, want %q", r, want)
	}
	if leaked := e.Shutdown(); leaked != 1 {
		t.Fatalf("Shutdown killed %d processes, want the 1 parked", leaked)
	}
}

// TestRunUntilAcrossProcesses: RunUntil's limit holds while processes
// run the event loop. Two processes ping-pong through Resumer and Park,
// one round per time unit; stopping at 50 and running on logs exactly
// what one Run does.
func TestRunUntilAcrossProcesses(t *testing.T) {
	run := func(split bool) []string {
		e := New(1)
		var log []string
		var resume [2]func()
		e.Go("a", func(p *Proc) {
			resume[0] = p.Resumer()
			for i := 0; i < 100; i++ {
				p.Sleep(1)
				log = append(log, fmt.Sprintf("a%d@%v", i, p.Now()))
				resume[1]()
				p.Park()
			}
		})
		e.Go("b", func(p *Proc) {
			resume[1] = p.Resumer()
			for i := 0; i < 100; i++ {
				p.Park()
				log = append(log, fmt.Sprintf("b%d@%v", i, p.Now()))
				resume[0]()
			}
		})
		if split {
			e.RunUntil(50)
			if e.Now() != 50 {
				t.Fatalf("clock = %v after RunUntil(50), want 50", e.Now())
			}
			if len(log) != 100 {
				t.Fatalf("%d rounds logged by RunUntil(50), want 100", len(log))
			}
		}
		e.Run()
		if leaked := e.Shutdown(); leaked != 0 {
			t.Fatalf("Shutdown killed %d processes, want 0", leaked)
		}
		return log
	}
	whole, split := run(false), run(true)
	if len(whole) != 200 {
		t.Fatalf("one Run logged %d entries, want 200", len(whole))
	}
	if fmt.Sprint(split) != fmt.Sprint(whole) {
		t.Fatalf("RunUntil(50)+Run logged\n%v\nwant\n%v", split, whole)
	}
}
