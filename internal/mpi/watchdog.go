package mpi

import (
	"fmt"
	"strconv"
	"strings"

	"smistudy/internal/sim"
)

// DefaultWatchdogInterval is the no-progress observation window when
// Params.Watchdog is zero. It is deliberately generous: a window must
// comfortably exceed the longest legitimate silent interval (a class-C
// compute phase with every peer already blocked) to never false-fire.
const DefaultWatchdogInterval = 120 * sim.Second

// FaultObserver tells the progress watchdog what the fault injector
// knows, so a fault-induced stall can be distinguished from a slow
// computation. faults.Injector implements it.
type FaultObserver interface {
	// NodeDown reports whether the node's CPUs are currently halted
	// (crashed or hung), i.e. its ranks cannot be expected to progress.
	NodeDown(node int) bool
	// FaultsPending reports whether scheduled fault transitions are
	// still to come; a pending expiry can revive a halted node, so the
	// watchdog must not declare the run dead before it fires.
	FaultsPending() bool
}

// SetFaultObserver connects a fault injector (or any observer) to the
// world's progress watchdog.
func (w *World) SetFaultObserver(obs FaultObserver) { w.obs = obs }

// RankState is one rank's status in a no-progress report.
type RankState struct {
	Rank, Node int
	State      string // "done", "computing", "node down", or "blocked in ..."
	Mailbox    int    // unexpected messages queued
	Posted     int    // receives posted and unmatched
}

// NoProgressError is the watchdog's report: every unfinished rank is
// blocked (or hosted on a halted node), nothing moved for a full
// observation interval, and no scheduled fault transition can change
// that. With Interval zero the event queue drained outright — a hard
// deadlock in the communication pattern itself.
type NoProgressError struct {
	At       sim.Time
	Interval sim.Time
	Ranks    []RankState
}

// Error formats the per-rank blocked-state report.
func (e *NoProgressError) Error() string {
	var b strings.Builder
	if e.Interval > 0 {
		fmt.Fprintf(&b, "mpi: no progress for %v at t=%v", e.Interval, e.At)
	} else {
		fmt.Fprintf(&b, "mpi: deadlock at t=%v — event queue drained with ranks outstanding", e.At)
	}
	stuck := 0
	for _, r := range e.Ranks {
		if r.State == "done" {
			continue
		}
		stuck++
		fmt.Fprintf(&b, "\n  rank %d (node %d): %s, mailbox %d, posted %d",
			r.Rank, r.Node, r.State, r.Mailbox, r.Posted)
	}
	fmt.Fprintf(&b, "\n  (%d of %d ranks outstanding)", stuck, len(e.Ranks))
	return b.String()
}

// armWatchdog starts the periodic no-progress check. Params.Watchdog
// selects the interval: zero means DefaultWatchdogInterval, negative
// disables the watchdog entirely.
func (w *World) armWatchdog() {
	iv := w.par.Watchdog
	if iv < 0 {
		return
	}
	if iv == 0 {
		iv = DefaultWatchdogInterval
	}
	last := w.progress
	var tick func()
	tick = func() {
		w.wdEvent = nil
		if w.remaining == 0 || w.wderr != nil {
			return
		}
		if w.progress == last && w.allBlocked() && !w.faultsPending() {
			w.wderr = w.noProgress(iv)
			w.cl.Eng.Stop()
			return
		}
		last = w.progress
		w.wdEvent = w.cl.Eng.After(iv, tick)
	}
	w.wdEvent = w.cl.Eng.After(iv, tick)
}

// allBlocked reports whether every unfinished rank is either parked in
// Wait or hosted on a node the fault observer knows is down.
func (w *World) allBlocked() bool {
	for _, r := range w.ranks {
		if r.done || r.waiting != nil {
			continue
		}
		if w.obs != nil && w.obs.NodeDown(r.node.Index) {
			continue
		}
		return false
	}
	return true
}

func (w *World) faultsPending() bool { return w.obs != nil && w.obs.FaultsPending() }

// noProgress snapshots every rank's state into a report. Interval zero
// marks a drained-queue deadlock rather than a timed observation.
func (w *World) noProgress(iv sim.Time) *NoProgressError {
	e := &NoProgressError{At: w.cl.Eng.Now(), Interval: iv}
	for _, r := range w.ranks {
		st := RankState{Rank: r.id, Node: r.node.Index,
			Mailbox: len(r.mailbox), Posted: len(r.posted)}
		switch {
		case r.done:
			st.State = "done"
		case w.obs != nil && w.obs.NodeDown(r.node.Index):
			st.State = "node down"
		case r.waiting != nil:
			st.State = r.waiting.describe()
		default:
			st.State = "computing"
		}
		e.Ranks = append(e.Ranks, st)
	}
	return e
}

// describe renders the operation a request represents, for blocked-state
// reports only (never on the hot path).
func (q *Request) describe() string {
	op := "send to"
	if q.kind == 'r' {
		op = "recv from"
	}
	peer := strconv.Itoa(q.peer)
	if q.peer == AnySource {
		peer = "any"
	}
	return fmt.Sprintf("blocked in %s rank %s tag %d", op, peer, q.tag)
}
