package mpi

import (
	"errors"
	"testing"

	"smistudy/internal/cluster"
	"smistudy/internal/faults"
	"smistudy/internal/kernel"
	"smistudy/internal/netsim"
	"smistudy/internal/sim"
	"smistudy/internal/smm"
)

// faultWorld builds a world with the reliable transport and an armed
// fault schedule, returning the world and its injector.
func faultWorld(t *testing.T, seed int64, nodes int, par Params, sched faults.Schedule) (*World, *faults.Injector) {
	t.Helper()
	e := sim.New(seed)
	c, err := cluster.New(e, cluster.Wyeast(nodes, false, smm.SMMNone))
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(c, 1, par)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := c.Inject(sched)
	if err != nil {
		t.Fatal(err)
	}
	w.SetFaultObserver(inj)
	return w, inj
}

func TestReliableCleanFabricNoRetransmits(t *testing.T) {
	w, _ := faultWorld(t, 1, 2, ReliableParams(), faults.Schedule{})
	_, err := w.RunE(prof, func(r *Rank, tk *kernel.Task) {
		for i := 0; i < 10; i++ {
			if r.ID() == 0 {
				r.Send(tk, 1, i, 1024)
			} else {
				r.Recv(tk, 0, i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.TransportStats()
	if st.Transfers == 0 || st.Acks == 0 {
		t.Fatalf("reliable transport unused: %+v", st)
	}
	if st.Retransmits != 0 || st.Failures != 0 || st.Duplicates != 0 {
		t.Fatalf("clean fabric saw retransmission activity: %+v", st)
	}
}

func TestLossyEagerCompletesViaRetransmission(t *testing.T) {
	var sched faults.Schedule
	sched.Add(faults.UniformLoss(0.3))
	w, _ := faultWorld(t, 7, 2, ReliableParams(), sched)
	got := 0
	_, err := w.RunE(prof, func(r *Rank, tk *kernel.Task) {
		for i := 0; i < 50; i++ {
			if r.ID() == 0 {
				r.Send(tk, 1, i, 1024)
			} else {
				r.Recv(tk, 0, i)
				got++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Fatalf("received %d of 50 messages", got)
	}
	st := w.TransportStats()
	if st.Retransmits == 0 {
		t.Fatalf("30%% loss produced no retransmits: %+v", st)
	}
	fst := w.cl.Fabric.Stats()
	if fst.Drops == 0 {
		t.Fatalf("fabric recorded no drops: %+v", fst)
	}
}

func TestLossyRendezvousCompletes(t *testing.T) {
	var sched faults.Schedule
	sched.Add(faults.UniformLoss(0.3))
	w, _ := faultWorld(t, 11, 2, ReliableParams(), sched)
	const bytes = 1 << 20 // over the eager limit
	var gotBytes int
	_, err := w.RunE(prof, func(r *Rank, tk *kernel.Task) {
		for i := 0; i < 5; i++ {
			if r.ID() == 0 {
				r.Send(tk, 1, i, bytes)
			} else {
				req := r.Irecv(tk, 0, i)
				r.Wait(tk, req)
				gotBytes += req.Bytes()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotBytes != 5*bytes {
		t.Fatalf("received %d bytes, want %d", gotBytes, 5*bytes)
	}
	if st := w.TransportStats(); st.Retransmits == 0 {
		t.Fatalf("30%% loss on a rendezvous handshake produced no retransmits: %+v", st)
	}
}

func TestCrashSurfacesPeerUnreachable(t *testing.T) {
	par := ReliableParams()
	par.Watchdog = 5 * sim.Second
	var sched faults.Schedule
	sched.Add(faults.CrashAt(1, 10*sim.Millisecond))
	w, inj := faultWorld(t, 3, 2, par, sched)
	end, err := w.RunE(prof, func(r *Rank, tk *kernel.Task) {
		// Rank 1 crashes before the exchange; rank 0's sends go into the
		// void and its receive never completes.
		tk.Nanosleep(20 * sim.Millisecond)
		if r.ID() == 0 {
			r.Send(tk, 1, 0, 1024)
			r.Recv(tk, 1, 1)
		} else {
			r.Recv(tk, 0, 0)
			r.Send(tk, 0, 1, 1024)
		}
	})
	if err == nil {
		t.Fatal("run against a crashed peer succeeded")
	}
	if !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("err = %v, want ErrPeerUnreachable", err)
	}
	if end > 60*sim.Second {
		t.Fatalf("failure took %v of simulated time; want bounded", end)
	}
	if inj.Stats().Drops == 0 {
		t.Fatal("injector condemned no messages for the crashed node")
	}
}

func TestHangTripsWatchdog(t *testing.T) {
	par := DefaultParams()
	par.Watchdog = 2 * sim.Second
	var sched faults.Schedule
	sched.Add(faults.HangAt(1, 5*sim.Millisecond, 0))
	w, _ := faultWorld(t, 5, 2, par, sched)
	end, err := w.RunE(prof, func(r *Rank, tk *kernel.Task) {
		if r.ID() == 0 {
			r.Recv(tk, 1, 0) // never arrives: the peer hangs first
		} else {
			tk.Nanosleep(50 * sim.Millisecond)
			r.Send(tk, 0, 0, 64)
		}
	})
	var np *NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("err = %v, want NoProgressError", err)
	}
	if len(np.Ranks) != 2 {
		t.Fatalf("report covers %d ranks, want 2", len(np.Ranks))
	}
	if got := np.Ranks[0].State; got != "blocked in recv from rank 1 tag 0" {
		t.Fatalf("rank 0 state = %q", got)
	}
	if got := np.Ranks[1].State; got != "node down" {
		t.Fatalf("rank 1 state = %q", got)
	}
	if end > 60*sim.Second {
		t.Fatalf("no-progress detection took %v of simulated time", end)
	}
}

func TestDrainedQueueDeadlockReported(t *testing.T) {
	w := world(t, 1, 2, 1)
	w.par.Watchdog = -1 // even with the watchdog off, a drained queue is reported
	_, err := w.RunE(prof, func(r *Rank, tk *kernel.Task) {
		r.Recv(tk, 1-r.ID(), 0) // both ranks receive, nobody sends
	})
	var np *NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("err = %v, want NoProgressError", err)
	}
	if np.Interval != 0 {
		t.Fatalf("interval = %v, want 0 (drained queue)", np.Interval)
	}
}

func TestWatchdogNoFalsePositive(t *testing.T) {
	// Long compute phases with a tight watchdog: ranks that are merely
	// slow must never be declared dead.
	par := DefaultParams()
	par.Watchdog = 100 * sim.Millisecond
	w, _ := faultWorld(t, 9, 4, par, faults.Schedule{})
	_, err := w.RunE(prof, func(r *Rank, tk *kernel.Task) {
		for i := 0; i < 5; i++ {
			tk.Compute(5e8) // ~220 ms on the Wyeast node
			r.Barrier(tk)
		}
	})
	if err != nil {
		t.Fatalf("clean run tripped the watchdog: %v", err)
	}
}

func TestPartitionHealsAndRunCompletes(t *testing.T) {
	// A transient partition shorter than the retry budget: the transport
	// must ride it out, not abort.
	var sched faults.Schedule
	sched.Add(faults.PartitionLink(0, 1, 0, 20*sim.Millisecond))
	w, _ := faultWorld(t, 13, 2, ReliableParams(), sched)
	_, err := w.RunE(prof, func(r *Rank, tk *kernel.Task) {
		if r.ID() == 0 {
			r.Send(tk, 1, 0, 1024)
		} else {
			r.Recv(tk, 0, 0)
		}
	})
	if err != nil {
		t.Fatalf("transient partition aborted the run: %v", err)
	}
	if st := w.TransportStats(); st.Retransmits == 0 {
		t.Fatalf("partition produced no retransmits: %+v", st)
	}
}

// ackDropper loses every envelope node `from` sends once a payload
// larger than an envelope has gone by: the rendezvous data lands, but
// none of its acks reach the sender.
type ackDropper struct {
	from  int
	armed bool
}

func (d *ackDropper) Perturb(src, dst, bytes int) netsim.Verdict {
	if bytes > envelopeBytes {
		d.armed = true
	}
	return netsim.Verdict{Drop: d.armed && src == d.from && bytes == envelopeBytes}
}

// TestLateTransferFailureSparesLaterRequests: when a rendezvous payload
// lands but every ack is lost, the transfer exhausts its retries after
// both ranks finished the operation. Both ranks are still poisoned with
// ErrPeerUnreachable, and the late failure reaches only that
// operation's objects, never the requests of an operation posted since.
func TestLateTransferFailureSparesLaterRequests(t *testing.T) {
	par := ReliableParams()
	par.MaxRetries = 2
	w, _ := faultWorld(t, 1, 2, par, faults.Schedule{})
	w.cl.Fabric.SetPerturber(&ackDropper{from: 1})
	var later [2]*Request
	var doneBeforeWait [2]bool
	_, err := w.RunE(prof, func(r *Rank, tk *kernel.Task) {
		other := 1 - r.ID()
		if r.ID() == 0 {
			r.Send(tk, 1, 1, 2*par.EagerLimit)
		} else {
			r.Recv(tk, 0, 1)
		}
		// Posted while the payload is still being retransmitted; never
		// matched.
		q := r.Irecv(tk, other, 2)
		later[r.ID()] = q
		tk.Nanosleep(sim.Second) // past the last retry
		doneBeforeWait[r.ID()] = q.Done()
		r.Wait(tk, q)
	})
	if !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("err = %v, want ErrPeerUnreachable", err)
	}
	if st := w.TransportStats(); st.Failures != 1 {
		t.Fatalf("%d failed transfers, want 1: %+v", st.Failures, st)
	}
	for id := 0; id < 2; id++ {
		if rerr := w.Rank(id).err; !errors.Is(rerr, ErrPeerUnreachable) {
			t.Errorf("rank %d poisoned with %v, want ErrPeerUnreachable", id, rerr)
		}
		if q := later[id]; doneBeforeWait[id] || q.Done() || q.Err() != nil {
			t.Errorf("rank %d: the late failure reached a later request (done %v, then %v, err %v)",
				id, doneBeforeWait[id], q.Done(), q.Err())
		}
	}
}
