package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"smistudy/internal/cluster"
	"smistudy/internal/cpu"
	"smistudy/internal/durable"
	"smistudy/internal/kernel"
	"smistudy/internal/mpi"
	"smistudy/internal/netsim"
	"smistudy/internal/obs"
	"smistudy/internal/perturb"
	"smistudy/internal/sim"
	"smistudy/internal/smm"
)

// The probes time each layer's public functions directly, on engines
// warmed by one untimed round, at fixed iteration counts. Each runs in
// well under a second on a 2-core host.
const (
	stallIters    = 20000
	spawnBatches  = 200 // of 8 tasks
	pingPongs     = 20000
	alltoalls     = 20
	sendrecvs     = 5000
	deliverRounds = 2000 // of 16 deliveries
	smiCount      = 5000
	jitterSeconds = 20
	emitCount     = 200000
	storeObjects  = 200
)

var busyProfile = cpu.Profile{CPI: 1}

// probes fills in the metrics of the layer probes; root is a temporary
// directory for the durable store probe.
func probes(root string, m map[string]float64) error {
	m["sim.event_ns"], m["sim.event_allocs"] = sim.MeasureEventCost()
	m["cpu.stall_unstall_ns"], m["cpu.stall_unstall_allocs"], m["cpu.stall_cpu_ns"] = probeStall()
	m["kernel.spawn_exit_us"], m["kernel.pipe_pingpong_ns"] = probeKernel()
	var err error
	if m["mpi.alltoall16_us"], m["mpi.alltoall16_allocs"], m["mpi.sendrecv_us"], err = probeMPI(); err != nil {
		return err
	}
	if m["netsim.deliver_ns"], m["netsim.deliver_allocs"], err = probeDeliver(); err != nil {
		return err
	}
	m["smm.smi_us"] = probeSMI()
	if m["perturb.jitter_tick_ns"], err = probeJitter(); err != nil {
		return err
	}
	m["obs.emit_ns"] = probeEmit()
	m["durable.put_us"], m["durable.get_us"], err = probeStore(filepath.Join(root, "probe"))
	return err
}

// cost times fn and counts its heap allocations.
func cost(fn func()) (time.Duration, uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	fn()
	d := time.Since(t)
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs
}

// r410 builds the paper's R410 node without SMIs, with every logical
// CPU running a thread that never finishes.
func r410() (*sim.Engine, *cluster.Node) {
	e := sim.New(1)
	cl := cluster.MustNew(e, cluster.R410(smm.DriverConfig{}))
	n := cl.Nodes[0]
	for i := 0; i < n.CPU.NumLogical(); i++ {
		n.CPU.StartCompute(n.CPU.NewThread(fmt.Sprint("busy", i), busyProfile), 1e18, func() {})
	}
	return e, n
}

// probeStall times the node-global stall (SMM entry and exit) and the
// per-CPU stall (the jitter path) against 8 computing threads.
func probeStall() (pairNS, pairAllocs, cpuNS float64) {
	_, n := r410()
	m := n.CPU
	m.Stall()
	m.Unstall()
	d, allocs := cost(func() {
		for i := 0; i < stallIters; i++ {
			m.Stall()
			m.Unstall()
		}
	})
	pairNS = float64(d.Nanoseconds()) / stallIters
	pairAllocs = float64(allocs) / stallIters
	d, _ = cost(func() {
		for i := 0; i < stallIters; i++ {
			id := i % m.NumLogical()
			m.StallCPU(id)
			m.UnstallCPU(id)
		}
	})
	return pairNS, pairAllocs, float64(d.Nanoseconds()) / stallIters
}

// probeKernel times task spawn-to-exit, in batches of 8 short tasks
// waited for by a parent, and a 1-byte round trip between two tasks
// over a pair of pipes.
func probeKernel() (spawnUS, pingNS float64) {
	e, n := r410()
	k := n.Kernel
	batch := func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			k.Spawn("child", busyProfile, func(t *kernel.Task) { t.Compute(1e4) })
		}
		k.WaitAllExited(p)
	}
	var spawn time.Duration
	e.Go("parent", func(p *sim.Proc) {
		batch(p)
		t := time.Now()
		for b := 0; b < spawnBatches; b++ {
			batch(p)
		}
		spawn = time.Since(t)
	})
	e.Run()
	e.Shutdown()

	e = sim.New(1)
	k = cluster.MustNew(e, cluster.R410(smm.DriverConfig{})).Nodes[0].Kernel
	ping, pong := k.NewPipe(0), k.NewPipe(0)
	var pp time.Duration
	k.Spawn("ping", busyProfile, func(t *kernel.Task) {
		round := func() {
			ping.Write(t, 1)
			pong.Read(t, 1)
		}
		round()
		start := time.Now()
		for i := 0; i < pingPongs; i++ {
			round()
		}
		pp = time.Since(start)
	})
	k.Spawn("pong", busyProfile, func(t *kernel.Task) {
		for i := 0; i <= pingPongs; i++ {
			ping.Read(t, 1)
			pong.Write(t, 1)
		}
	})
	e.Run()
	e.Shutdown()
	return spawn.Seconds() * 1e6 / (spawnBatches * 8), float64(pp.Nanoseconds()) / pingPongs
}

// rankTimer measures, from rank 0, the host time and allocations
// between two points every rank passes after a barrier.
type rankTimer struct {
	t0     time.Time
	m0     runtime.MemStats
	d      time.Duration
	allocs uint64
}

func (rt *rankTimer) start(r *mpi.Rank) {
	if r.ID() == 0 {
		runtime.ReadMemStats(&rt.m0)
		rt.t0 = time.Now()
	}
}

func (rt *rankTimer) stop(r *mpi.Rank) {
	if r.ID() == 0 {
		rt.d = time.Since(rt.t0)
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		rt.allocs = m1.Mallocs - rt.m0.Mallocs
	}
}

func wyeastWorld(nodes int) (*mpi.World, error) {
	cl, err := cluster.New(sim.New(1), cluster.Wyeast(nodes, false, smm.SMMNone))
	if err != nil {
		return nil, err
	}
	return mpi.NewWorld(cl, 1, mpi.DefaultParams())
}

// probeMPI times a 16-rank 64 KiB Alltoall and a 2-node 1 KiB
// Sendrecv.
func probeMPI() (a2aUS, a2aAllocs, srUS float64, err error) {
	w, err := wyeastWorld(16)
	if err != nil {
		return 0, 0, 0, err
	}
	var a2a rankTimer
	if _, err := w.RunE(busyProfile, func(r *mpi.Rank, t *kernel.Task) {
		r.Alltoall(t, 64<<10)
		r.Barrier(t)
		a2a.start(r)
		for i := 0; i < alltoalls; i++ {
			r.Alltoall(t, 64<<10)
		}
		r.Barrier(t)
		a2a.stop(r)
	}); err != nil {
		return 0, 0, 0, err
	}
	if w, err = wyeastWorld(2); err != nil {
		return 0, 0, 0, err
	}
	var sr rankTimer
	if _, err := w.RunE(busyProfile, func(r *mpi.Rank, t *kernel.Task) {
		other := 1 - r.ID()
		r.Sendrecv(t, other, 1, 1<<10, other, 1)
		r.Barrier(t)
		sr.start(r)
		for i := 0; i < sendrecvs; i++ {
			r.Sendrecv(t, other, 1, 1<<10, other, 1)
		}
		r.Barrier(t)
		sr.stop(r)
	}); err != nil {
		return 0, 0, 0, err
	}
	return a2a.d.Seconds() * 1e6 / alltoalls, float64(a2a.allocs) / alltoalls, sr.d.Seconds() * 1e6 / sendrecvs, nil
}

// probeDeliver times 64 KiB fabric deliveries, round-robin over 16
// nodes, including the delivery event firing.
func probeDeliver() (ns, allocs float64, err error) {
	e := sim.New(1)
	f, err := netsim.New(e, 16, netsim.GigabitEthernet())
	if err != nil {
		return 0, 0, err
	}
	done := func() {}
	round := func() {
		for i := 0; i < 16; i++ {
			f.Deliver(i, (i+1)%16, 64<<10, done)
		}
		e.Run()
	}
	round()
	d, a := cost(func() {
		for r := 0; r < deliverRounds; r++ {
			round()
		}
	})
	const n = deliverRounds * 16
	return float64(d.Nanoseconds()) / n, float64(a) / n, nil
}

// probeSMI times SMM entry to exit with 8 busy CPUs.
func probeSMI() float64 {
	e, n := r410()
	smi := func() {
		n.SMM.TriggerSMI(100*sim.Microsecond, nil)
		e.RunUntil(e.Now() + 10*sim.Millisecond)
	}
	smi()
	d, _ := cost(func() {
		for i := 0; i < smiCount; i++ {
			smi()
		}
	})
	return d.Seconds() * 1e6 / smiCount
}

// probeJitter times OS-jitter ticks (10 ms period, 200 µs steals, 0.2
// spread) on all 8 CPUs of a busy R410 node, per completed tick.
func probeJitter() (float64, error) {
	e, n := r410()
	j, err := perturb.NewJitter(e, n.CPU, perturb.JitterConfig{
		Period: 10 * sim.Millisecond, Duration: 200 * sim.Microsecond, Jitter: 0.2, Seed: 1,
	})
	if err != nil {
		return 0, err
	}
	j.Start()
	e.RunUntil(e.Now() + sim.Second)
	warm := len(j.Episodes())
	d, _ := cost(func() { e.RunUntil(e.Now() + jitterSeconds*sim.Second) })
	j.Stop()
	return float64(d.Nanoseconds()) / float64(len(j.Episodes())-warm), nil
}

// probeEmit times Bus.Emit into a Chrome sink writing to io.Discard,
// cycling through scheduling, MPI and fabric events.
func probeEmit() float64 {
	bus := obs.NewBus()
	sink := obs.NewChromeSink(io.Discard)
	bus.Attach(sink)
	evs := []obs.Event{
		{Type: obs.EvSchedRun, Node: 0, Track: 1, A: 7, Name: "rank0"},
		{Type: obs.EvMPISend, Node: 0, Track: 0, A: 1, B: 1 << 10},
		{Type: obs.EvNetDeliver, Node: 0, Track: -1, A: 1, B: 1 << 10, Dur: 50 * sim.Microsecond},
		{Type: obs.EvSchedPreempt, Node: 0, Track: 1, A: 7, Name: "rank0"},
	}
	emit := func(i int) {
		ev := evs[i%len(evs)]
		ev.Time = sim.Time(i) * sim.Microsecond
		bus.Emit(ev)
	}
	for i := 0; i < len(evs); i++ {
		emit(i)
	}
	d, _ := cost(func() {
		for i := len(evs); i < len(evs)+emitCount; i++ {
			emit(i)
		}
	})
	sink.Close()
	return float64(d.Nanoseconds()) / emitCount
}

// probeStore times Store.Put and Store.Get of a 2 KiB object.
func probeStore(dir string) (putUS, getUS float64, err error) {
	st, err := durable.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	data := make([]byte, 2<<10)
	keys := make([]string, storeObjects)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprint(i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	var perr, gerr error
	put, _ := cost(func() {
		for _, k := range keys {
			if err := st.Put(k, 0, data); err != nil && perr == nil {
				perr = err
			}
		}
	})
	get, _ := cost(func() {
		for _, k := range keys {
			if _, err := st.Get(k, 0); err != nil && gerr == nil {
				gerr = err
			}
		}
	})
	if perr != nil {
		return 0, 0, perr
	}
	if gerr != nil {
		return 0, 0, gerr
	}
	return put.Seconds() * 1e6 / storeObjects, get.Seconds() * 1e6 / storeObjects, nil
}
