package sim

import (
	"fmt"
	"math/rand"
)

// Event is a scheduled callback. Events are ordered by time, then by
// scheduling order (FIFO among simultaneous events), which keeps runs
// deterministic.
//
// Lifecycle: the *Event returned by At/After is valid only while the
// event is pending. Once the event fires or is canceled the engine
// recycles the object for a later At/After (the free list is what makes
// steady-state scheduling allocation-free), so holders of a stored
// handle must drop it — conventionally by nilling their field — when
// the callback runs or right after Cancel. Canceling from inside the
// event's own callback is safe (the object is not recycled until the
// callback returns); canceling a handle kept across a fire is not.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	proc     *Proc // the process a wake event resumes; fn is then nil
	index    int   // heap index, -1 when not queued
	canceled bool
}

// Time reports when the event is (or was) scheduled to fire.
func (ev *Event) Time() Time { return ev.at }

// Canceled reports whether the event has been canceled.
func (ev *Event) Canceled() bool { return ev.canceled }

// eventHeap is a binary min-heap ordered by (at, seq). The sift
// operations are hand-rolled rather than going through container/heap:
// push/pop is the hottest path in the simulator and the interface
// dispatch plus any-boxing of the stdlib API is measurable there.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) push(ev *Event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	h.siftUp(ev.index)
}

// popMin removes and returns the earliest event.
func (h *eventHeap) popMin() *Event {
	old := *h
	n := len(old) - 1
	old.swap(0, n)
	ev := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.siftDown(0)
	}
	ev.index = -1
	return ev
}

// removeAt removes the event at heap index i.
func (h *eventHeap) removeAt(i int) {
	old := *h
	n := len(old) - 1
	ev := old[i]
	if i != n {
		old.swap(i, n)
		old[n] = nil
		*h = old[:n]
		if !h.siftDown(i) {
			h.siftUp(i)
		}
	} else {
		old[n] = nil
		*h = old[:n]
	}
	ev.index = -1
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// siftDown reports whether the element moved.
func (h eventHeap) siftDown(i int) bool {
	start := i
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		best := left
		if right := left + 1; right < n && h.less(right, left) {
			best = right
		}
		if !h.less(best, i) {
			break
		}
		h.swap(i, best)
		i = best
	}
	return i > start
}

// Engine is a discrete-event simulation kernel. It is not safe for
// concurrent use; model code must only touch it from event callbacks or
// from the currently-running process.
type Engine struct {
	now       Time
	queue     eventHeap
	free      []*Event // recycled Event objects, reused by At/After
	seq       uint64
	processed uint64 // events fired over the engine's lifetime
	rng       *rand.Rand
	running   bool
	stopped   bool
	limit     Time // RunUntil's limit, read by whichever goroutine runs the loop

	// yield hands control back to RunUntil's caller, carrying nil or
	// the panic to re-raise, and from a killed process to Shutdown.
	yield chan any
	procs map[*Proc]struct{}

	nextProcID int

	probe Probe // optional scheduling-traffic observer, usually nil
}

// queueHint presizes the event queue and free list: a cluster run keeps
// on the order of one pending event per CPU, fabric flow and timer, so
// starting at this capacity avoids the early append-grow churn without
// costing meaningful memory on small engines.
const queueHint = 128

// New returns an engine with its clock at zero and a deterministic RNG
// derived from seed.
func New(seed int64) *Engine {
	return &Engine{
		queue: make(eventHeap, 0, queueHint),
		free:  make([]*Event, 0, queueHint),
		rng:   rand.New(rand.NewSource(seed)),
		yield: make(chan any),
		procs: make(map[*Proc]struct{}),
	}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// alloc takes an Event from the free list, or makes one.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// recycle returns a fired or canceled event to the free list. The
// canceled flag is deliberately left as-is so a just-canceled handle
// still answers Canceled() truthfully until the object is reused; At
// resets every field on reuse.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.proc = nil
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it would silently corrupt causality.
func (e *Engine) At(t Time, fn func()) *Event { return e.schedule(t, fn, nil) }

// schedule queues an event at t that either calls fn or, when p is not
// nil, resumes p.
func (e *Engine) schedule(t Time, fn func(), p *Proc) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.proc = p
	ev.canceled = false
	e.queue.push(ev)
	if e.probe != nil {
		e.probe.EngineEvent(ProbeSchedule)
	}
	return ev
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a pending event. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled || ev.index < 0 {
		if ev != nil {
			ev.canceled = true
		}
		return
	}
	ev.canceled = true
	e.queue.removeAt(ev.index)
	e.recycle(ev)
	if e.probe != nil {
		e.probe.EngineEvent(ProbeCancel)
	}
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// Events reports how many events the engine has fired over its
// lifetime. The counter rides the existing pop in dispatch, so keeping
// it costs no allocation and no extra branch on the scheduling path.
func (e *Engine) Events() uint64 { return e.processed }

// PeekTime reports the time of the next pending event, or Forever if the
// queue is empty.
func (e *Engine) PeekTime() Time {
	if len(e.queue) == 0 {
		return Forever
	}
	return e.queue[0].at
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() { e.RunUntil(Forever) }

// RunUntil executes events with time ≤ limit; the clock is then advanced
// to limit (if limit is reachable, i.e. not Forever with an empty queue).
//
// The loop runs on whichever goroutine holds control: the caller's until
// an event resumes a process, then that process's once it parks or
// finishes (see Proc.park). Control, and any panic raised on another
// goroutine, comes back to the caller over yield when the run ends.
func (e *Engine) RunUntil(limit Time) {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	e.stopped = false
	e.limit = limit
	defer func() { e.running = false }()

	if p := e.dispatch(); p != nil {
		p.resume <- nil
		if r := <-e.yield; r != nil {
			panic(r)
		}
	}
	if !e.stopped && limit != Forever && limit > e.now {
		e.now = limit
	}
}

// dispatch fires events in order until one resumes a live process and
// returns that process, or returns nil when the run ends: Stop was
// called, the queue is empty or the next event is past the limit.
func (e *Engine) dispatch() *Proc {
	for !e.stopped && len(e.queue) > 0 && e.queue[0].at <= e.limit {
		ev := e.queue.popMin()
		e.now = ev.at
		e.processed++
		if e.probe != nil {
			e.probe.EngineEvent(ProbeFire)
		}
		if p := ev.proc; p != nil {
			e.recycle(ev)
			if !p.dead {
				return p
			}
			continue
		}
		ev.fn()
		// Recycle only after fn returns: a Cancel of the firing event
		// from inside its own callback must see the popped (index -1)
		// object, not a reused one.
		e.recycle(ev)
	}
	return nil
}

// Shutdown kills every process that is parked or has not started yet
// (via a recovered panic inside each process goroutine), drains the
// event queue, and clears the stopped latch so the engine can schedule
// and Run again. It returns the number of processes it had
// to kill — a non-zero count after a run that was expected to finish
// cleanly means the model leaked processes. It panics if called while
// the engine runs. It is intended for tests and for aborting
// simulations early without leaking goroutines.
func (e *Engine) Shutdown() int {
	if e.running {
		panic("sim: Shutdown called while running")
	}
	leaked := len(e.procs) // finished processes have left the set
	for p := range e.procs {
		p.kill()
	}
	for len(e.queue) > 0 {
		e.recycle(e.queue.popMin())
	}
	e.stopped = false
	return leaked
}
