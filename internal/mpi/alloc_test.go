package mpi

import (
	"testing"

	"smistudy/internal/kernel"
	"smistudy/internal/sim"
)

// opAllocs runs op on every rank of w, first a few untimed rounds and
// then, on rank 0, through testing.AllocsPerRun while the other ranks
// match it round for round. AllocsPerRun calls op once more than runs,
// as its own warm-up. The count covers every rank, because all of them
// run inside rank 0's measured window.
func opAllocs(t *testing.T, w *World, op func(r *Rank, tk *kernel.Task)) float64 {
	t.Helper()
	const warm, runs = 4, 100
	var got float64
	_, err := w.RunE(prof, func(r *Rank, tk *kernel.Task) {
		for i := 0; i < warm; i++ {
			op(r, tk)
		}
		if r.ID() == 0 {
			got = testing.AllocsPerRun(runs, func() { op(r, tk) })
			return
		}
		for i := 0; i < runs+1; i++ {
			op(r, tk)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMessagePathAllocFree pins the message path's steady state at zero
// allocations, the way cpu.TestRescheduleAllocFree pins the
// rescheduler's: requests, messages and fabric flights come from free
// lists, and Wait parks without building a closure.
func TestMessagePathAllocFree(t *testing.T) {
	rendezvous := DefaultParams().EagerLimit + 1
	for _, tc := range []struct {
		name  string
		nodes int
		rpn   int
		op    func(r *Rank, tk *kernel.Task)
	}{
		{"Sendrecv/eager", 2, 1, func(r *Rank, tk *kernel.Task) {
			other := 1 - r.ID()
			r.Sendrecv(tk, other, 1, 1<<10, other, 1)
		}},
		{"Sendrecv/rendezvous", 2, 1, func(r *Rank, tk *kernel.Task) {
			other := 1 - r.ID()
			r.Sendrecv(tk, other, 1, rendezvous, other, 1)
		}},
		{"Barrier", 4, 2, func(r *Rank, tk *kernel.Task) { r.Barrier(tk) }},
		{"Allreduce", 4, 1, func(r *Rank, tk *kernel.Task) { r.Allreduce(tk, 80) }},
		{"Alltoall/16", 16, 1, func(r *Rank, tk *kernel.Task) { r.Alltoall(tk, 64<<10) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := world(t, 1, tc.nodes, tc.rpn)
			if got := opAllocs(t, w, tc.op); got != 0 {
				t.Errorf("%s allocates %.1f allocs/op, want 0", tc.name, got)
			}
			if n := w.cl.Fabric.Stats().Messages; n == 0 {
				t.Fatalf("%s sent no fabric messages", tc.name)
			}
		})
	}
}

// TestWaitWakesOnce: when a second waker (a transport failure, say)
// reaches a rank in the same instant as the completion of the request
// it waits on, the rank resumes once, so nothing it parks on next is
// cut short. The run must end exactly when the run with one waker does.
func TestWaitWakesOnce(t *testing.T) {
	run := func(extraWake bool) (sim.Time, sim.Time) {
		w := world(t, 1, 1, 1)
		e := w.cl.Eng
		var slept sim.Time
		end, err := w.RunE(prof, func(r *Rank, tk *kernel.Task) {
			q := r.Irecv(tk, 0, 9)
			e.After(5*sim.Millisecond, func() {
				q.complete(0, 1)
				if extraWake {
					r.wake()
				}
			})
			r.Wait(tk, q)
			start := e.Now()
			tk.Nanosleep(100 * sim.Millisecond)
			slept = e.Now() - start
		})
		if err != nil {
			t.Fatal(err)
		}
		return end, slept
	}
	end1, _ := run(false)
	end2, slept := run(true)
	if slept < 100*sim.Millisecond {
		t.Fatalf("sleep after a doubly woken Wait lasted %v, want 100ms", slept)
	}
	if end1 != end2 {
		t.Fatalf("run ends at %v with a second waker, %v without", end2, end1)
	}
}
