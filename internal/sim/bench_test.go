package sim

// Engine hot-path benchmarks: schedule/fire/cancel churn with allocation
// reporting. The per-event numbers here are the floor under every
// experiment sweep — a full table regeneration is hundreds of millions
// of these operations — so the free list keeping steady-state events at
// 0 allocs/op is what the BENCH_sweeps.json trajectory leans on.
//
//	go test ./internal/sim -bench=. -benchmem

import "testing"

// BenchmarkScheduleFire measures the self-rescheduling tick pattern —
// one push + one pop + one callback per iteration — that clocks, SMI
// drivers and watchdogs all use.
func BenchmarkScheduleFire(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			e.After(1, tick)
		}
	}
	b.ResetTimer()
	e.After(1, tick)
	e.Run()
}

// BenchmarkScheduleCancel measures the armed-timer pattern: schedule a
// timeout, cancel it before it fires (the reliable transport does this
// once per acknowledged message).
func BenchmarkScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	fn := func() {}
	driver := func() {
		for i := 0; i < b.N; i++ {
			ev := e.At(e.Now()+10, fn)
			e.Cancel(ev)
			e.At(e.Now()+1, fn)
			e.RunUntil(e.Now() + 1)
		}
	}
	b.ResetTimer()
	driver()
}

// BenchmarkScheduleFireDeep measures heap churn at depth: a standing
// population of pending events (as in a big cluster: one timer per CPU,
// flow and driver) with one schedule+fire per iteration at the front.
func BenchmarkScheduleFireDeep(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	fn := func() {}
	// Standing background population far in the future.
	for i := 0; i < 1024; i++ {
		e.At(Forever/2+Time(i), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+1, fn)
		e.RunUntil(e.Now() + 1)
	}
}

// BenchmarkCancelOfMany measures removeAt on random heap positions.
func BenchmarkCancelOfMany(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	fn := func() {}
	const standing = 512
	evs := make([]*Event, 0, standing)
	for i := 0; i < standing; i++ {
		evs = append(evs, e.At(Time(e.Rand().Int63n(1<<40)+1), fn))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % standing
		e.Cancel(evs[j])
		evs[j] = e.At(Time(e.Rand().Int63n(1<<40)+1), fn)
	}
}

// BenchmarkProcSleep measures a process that sleeps in a loop: each
// wake resumes the process that ran the loop, so it costs no goroutine
// switch.
func BenchmarkProcSleep(b *testing.B) {
	b.ReportAllocs()
	e := New(1)
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcPingPong measures two processes that take turns waking
// each other through Resumer and Park: one goroutine switch per resume.
func BenchmarkProcPingPong(b *testing.B) {
	b.ReportAllocs()
	pp := newPingPong(New(1))
	b.ResetTimer()
	pp.run(b.N)
	b.StopTimer()
	pp.e.Shutdown()
}

// pingPong is two processes that take turns waking each other through
// Resumer and Park. Every resume counts a turn; the process that makes
// the last turn of a run stops the engine instead of waking the other,
// so both end up parked.
type pingPong struct {
	e           *Engine
	wake        [2]func()
	turns, last int
}

// newPingPong spawns the pair and runs the engine until both are parked.
func newPingPong(e *Engine) *pingPong {
	pp := &pingPong{e: e}
	for i := range pp.wake {
		e.Go("pingpong", func(p *Proc) {
			pp.wake[i] = p.Resumer()
			for {
				p.Park()
				if pp.turns++; pp.turns >= pp.last {
					e.Stop()
					continue
				}
				pp.wake[1-i]()
			}
		})
	}
	e.Run()
	return pp
}

// run makes n more turns, the first by process 0.
func (pp *pingPong) run(n int) {
	pp.last = pp.turns + n
	pp.wake[0]()
	pp.e.Run()
}
