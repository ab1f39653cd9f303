package sim

import "fmt"

type procState int

const (
	procNew procState = iota
	procRunning
	procParked
	procDone
)

type killSentinel struct{}

// Proc is a simulation process: a goroutine that runs model code and
// suspends on simulation primitives. Exactly one process runs at a time;
// control is handed between the engine and the process through channels,
// so execution order is deterministic.
type Proc struct {
	eng    *Engine
	id     int
	name   string
	state  procState
	resume chan any
	pval   any  // panic value propagated from the process goroutine
	dead   bool // killed or finished

	// wakeFn resumes the process with no value. Built once so the
	// Sleep hot path does not allocate a closure per call.
	wakeFn func()
	// resumeFn schedules wakeFn as an immediate event, the wake-up a
	// Wait pair's wake(nil) schedules. Built once, like wakeFn.
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
		state:  procNew,
		resume: make(chan any),
	}
	p.wakeFn = func() { e.transfer(p, nil) }
	p.resumeFn = func() { e.At(e.now, p.wakeFn) }
	e.procs[p] = struct{}{}

	go func() {
		// Wait for the engine to transfer control for the first time.
		v := <-p.resume
		if _, kill := v.(killSentinel); kill {
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

	e.At(e.now, p.wakeFn)
	return p
}

// finish hands control back to the engine for the last time. Runs on the
// process goroutine.
func (p *Proc) finish(panicVal any) {
	p.state = procDone
	p.dead = true
	p.pval = panicVal
	p.eng.yield <- struct{}{}
}

// transfer resumes p with value v and blocks until p parks or finishes.
// Must run on the engine goroutine (inside an event callback).
func (e *Engine) transfer(p *Proc, v any) {
	if p.dead {
		return
	}
	p.state = procRunning
	p.resume <- v
	<-e.yield
	if p.state == procDone {
		delete(e.procs, p)
		if p.pval != nil {
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, p.pval))
		}
	}
}

// park suspends the process until the engine resumes it, returning the
// value passed to the wake-up. Runs on the process goroutine.
func (p *Proc) park() any {
	p.state = procParked
	p.eng.yield <- struct{}{}
	v := <-p.resume
	if _, kill := v.(killSentinel); kill {
		panic(killSentinel{})
	}
	p.state = procRunning
	return v
}

// kill terminates a parked process. Must run on the engine goroutine.
func (p *Proc) kill() {
	if p.dead || p.state != procParked {
		return
	}
	p.dead = true
	p.resume <- killSentinel{}
	<-p.eng.yield
	delete(p.eng.procs, p)
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
	e.At(e.now+d, p.wakeFn)
	p.park()
}

// Wait suspends the process until another component calls the returned
// wake function. The wake function schedules the resumption as an
// immediate event and may be called from engine or process context; extra
// calls are ignored.
func (p *Proc) Wait() (wake func(v any), wait func() any) {
	woken := false
	wake = func(v any) {
		if woken {
			return
		}
		woken = true
		p.eng.At(p.eng.now, func() { p.eng.transfer(p, v) })
	}
	wait = func() any { return p.park() }
	return wake, wait
}

// Resumer returns a callback that wakes p through an immediate event,
// exactly as calling the wake function of a Wait pair with nil does. It
// is built once per process, so a hot path can hand it out as a
// completion callback and then Park without allocating. Unlike Wait's
// wake it has no once-only guard: call it once per Park.
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
		e.At(e.now, p.wakeFn)
	}
	s.waiters = ws[:0]
}

// Len reports the number of parked waiters.
func (s *Signal) Len() int { return len(s.waiters) }
