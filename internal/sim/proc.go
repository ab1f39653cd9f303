package sim

import "fmt"

type killSentinel struct{}

// Proc is a simulation process: a goroutine that runs model code and
// suspends on simulation primitives. Exactly one goroutine runs at a
// time, and control passes between them over channels: a process that
// parks or finishes runs the event loop itself and hands control to the
// next process it resumes, or back to RunUntil's caller when the run
// ends, so execution order is deterministic.
type Proc struct {
	eng    *Engine
	id     int
	name   string
	resume chan any
	dead   bool // killed or finished

	// resumeFn schedules p's wake as an immediate event; Resumer hands
	// it out. Built once so a hot path can pass it without allocating.
	resumeFn func()
}

// Go spawns a new process executing fn. The process starts at the current
// simulation time, after previously scheduled events for this instant.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	e.nextProcID++
	p := &Proc{
		eng:    e,
		id:     e.nextProcID,
		name:   name,
		resume: make(chan any),
	}
	p.resumeFn = func() { e.schedule(e.now, nil, p) }
	e.procs[p] = struct{}{}

	go func() {
		// Wait for the first resume.
		if _, kill := (<-p.resume).(killSentinel); kill {
			p.finish(nil)
			return
		}
		defer func() {
			r := recover()
			if _, kill := r.(killSentinel); kill {
				r = nil
			}
			p.finish(r)
		}()
		fn(p)
	}()

	e.schedule(e.now, nil, p)
	return p
}

// finish retires the process and passes control on for the last time:
// back to Shutdown when the process was killed, to RunUntil's caller
// with the panic when it panicked, and otherwise through the event loop
// like a park. Runs on the process goroutine.
func (p *Proc) finish(panicVal any) {
	e := p.eng
	killed := p.dead
	p.dead = true
	delete(e.procs, p)
	switch {
	case killed:
		e.yield <- nil
	case panicVal != nil:
		e.yield <- fmt.Sprintf("sim: process %q panicked: %v", p.name, panicVal)
	default:
		e.handoff(p)
	}
}

// park suspends the process until an event resumes it. Runs on the
// process goroutine, which runs the event loop meanwhile: when the next
// process to resume is p itself, park returns without a goroutine
// switch.
func (p *Proc) park() {
	if p.dead {
		// Parking while being killed (say, in a deferred call): keep
		// unwinding instead of running the loop under Shutdown.
		panic(killSentinel{})
	}
	if !p.eng.handoff(p) {
		if _, kill := (<-p.resume).(killSentinel); kill {
			panic(killSentinel{})
		}
	}
}

// handoff runs the event loop on the goroutine of from, a process that
// parks or finishes, and passes control to what comes next. It reports
// whether that is from itself, which then keeps running. Otherwise it
// resumes the next process with one channel send, or hands control back
// to RunUntil's caller over yield when the run ends — together with the
// panic value if an event callback panicked, leaving from parked.
func (e *Engine) handoff(from *Proc) bool {
	next, r := e.dispatchRecover()
	switch {
	case next == from:
		return true
	case next != nil:
		next.resume <- nil
	default:
		e.yield <- r
	}
	return false
}

// dispatchRecover is dispatch with a callback's panic recovered into r,
// so a process goroutine can hand it to RunUntil's caller.
func (e *Engine) dispatchRecover() (next *Proc, r any) {
	defer func() { r = recover() }()
	return e.dispatch(), nil
}

// kill terminates a live process, which between runs is parked or has
// not started yet. The process unwinds on its own goroutine and hands
// control straight back; it never enters the event loop. Runs on
// Shutdown's goroutine.
func (p *Proc) kill() {
	p.dead = true
	p.resume <- killSentinel{}
	<-p.eng.yield
}

// Name reports the process name given to Go.
func (p *Proc) Name() string { return p.name }

// ID reports the unique process id.
func (p *Proc) ID() int { return p.id }

// Engine reports the engine the process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current simulation time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Sleep suspends the process for duration d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	e := p.eng
	e.schedule(e.now+d, nil, p)
	p.park()
}

// Resumer returns a callback that wakes p through an immediate event: it
// schedules the resumption at the current time, after the events
// already queued for that instant, and may be called from engine or
// process context. It is built once per process, so a hot path can hand
// it out as a completion callback and then Park without allocating. It
// has no once-only guard: call it once per Park, and let a caller with
// several possible wakers keep its own guard.
func (p *Proc) Resumer() func() { return p.resumeFn }

// Park suspends p until something resumes it, such as a Resumer
// callback.
func (p *Proc) Park() { p.park() }

// Signal is a broadcast wake-up point for processes, similar to a
// condition variable. The zero value is ready to use.
type Signal struct {
	waiters []*Proc
}

// Wait parks p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.park()
}

// Broadcast wakes all waiting processes (as immediate events, in wait
// order). Safe to call from engine or process context. The waiter slice
// is kept for the next round of waits: At only queues, so no Wait can
// append to it while the loop runs.
func (s *Signal) Broadcast(e *Engine) {
	ws := s.waiters
	for i, p := range ws {
		ws[i] = nil
		e.schedule(e.now, nil, p)
	}
	s.waiters = ws[:0]
}

// Len reports the number of parked waiters.
func (s *Signal) Len() int { return len(s.waiters) }
