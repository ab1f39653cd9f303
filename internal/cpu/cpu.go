// Package cpu models a multicore, optionally hyper-threaded processor
// executing compute-bound thread work under piecewise-constant rates.
//
// The model tracks, for every runnable thread, an outstanding compute job
// (a number of abstract operations). Threads are assigned to online
// logical CPUs the way Linux spreads load: across physical cores first,
// hyper-threaded siblings second. Each thread then progresses at a rate
// determined by its workload profile (CPI, cache miss rate), sibling
// contention for issue slots, the node's memory-bandwidth ceiling, and —
// crucially for this study — whether the processor is currently stalled in
// System Management Mode (rate zero for every logical CPU).
//
// Whenever anything changes (job arrives or finishes, SMI begins or ends,
// a CPU is onlined or offlined) the model integrates progress since the
// last change and recomputes rates, scheduling a completion event for the
// next job to finish. This gives exact piecewise-linear progress without
// per-timeslice events. Placement is recomputed only when one of its
// inputs changed; a stall or a profile change keeps every thread where
// it is and recomputes rates alone.
package cpu

import (
	"fmt"
	"math"
	"slices"

	"smistudy/internal/obs"
	"smistudy/internal/sim"
)

// Params configures a node's processor.
type Params struct {
	PhysCores int     // number of physical cores
	HTT       bool    // expose two logical CPUs per physical core
	BaseHz    float64 // core clock in cycles/second

	// MissPenalty is the average stall, in cycles, per cache miss.
	MissPenalty float64
	// MemBandwidth is the node-wide ceiling on cache misses per second
	// (models DRAM bandwidth saturation). Zero means unlimited.
	MemBandwidth float64
	// SMTEfficiency derates issue throughput when both hyper-threaded
	// siblings are busy (front-end sharing losses). 1 means ideal
	// slot-filling; Nehalem-class parts are around 0.9.
	SMTEfficiency float64
	// SMTShares sets, per physical core, the issue-slot share the
	// sibling-0 logical CPU keeps of the overlap when both
	// hyper-threaded siblings are busy (SYNPA-style asymmetric SMT
	// partitioning); sibling 1 gets the complement. Entries must be in
	// (0,1); an empty or short slice means the symmetric 0.5 split for
	// the remaining cores, which is the classic fixed HTT behavior.
	SMTShares []float64
}

// Validate reports whether the parameters describe a usable processor.
func (p Params) Validate() error {
	if p.PhysCores <= 0 {
		return fmt.Errorf("cpu: PhysCores = %d, need > 0", p.PhysCores)
	}
	if p.BaseHz <= 0 {
		return fmt.Errorf("cpu: BaseHz = %v, need > 0", p.BaseHz)
	}
	if p.MissPenalty < 0 {
		return fmt.Errorf("cpu: negative MissPenalty")
	}
	if p.SMTEfficiency <= 0 || p.SMTEfficiency > 1 {
		return fmt.Errorf("cpu: SMTEfficiency = %v, need (0,1]", p.SMTEfficiency)
	}
	if len(p.SMTShares) > p.PhysCores {
		return fmt.Errorf("cpu: %d SMTShares for %d physical cores", len(p.SMTShares), p.PhysCores)
	}
	for i, s := range p.SMTShares {
		if s <= 0 || s >= 1 {
			return fmt.Errorf("cpu: SMTShares[%d] = %v, need (0,1)", i, s)
		}
	}
	return nil
}

// Profile describes how a thread's instruction stream behaves on the core.
type Profile struct {
	// CPI is the cycles per operation when all references hit cache.
	CPI float64
	// MissRate is the rate of *stalling* cache misses per operation
	// with the thread alone on its physical core (misses the prefetcher
	// and out-of-order engine cannot hide).
	MissRate float64
	// MissRateShared is the stalling miss rate when the thread shares
	// its physical core's cache with a hyper-threaded sibling. Must be
	// ≥ MissRate; zero means "same as MissRate".
	MissRateShared float64
	// MemMissRate is the total memory traffic per operation (cache
	// lines fetched, stalling or prefetched) counted against the node's
	// memory-bandwidth ceiling. Zero means "same as the stalling rate".
	MemMissRate float64
}

func (p Profile) sharedMiss() float64 {
	if p.MissRateShared > p.MissRate {
		return p.MissRateShared
	}
	return p.MissRate
}

// soloOpsPerCycle returns ops/cycle for the profile running alone, with
// the given miss rate. It doubles as the thread's issue-slot demand: one
// op occupies one issue slot, so a thread at u ops/cycle leaves (1-u) of
// the core's slots — latency stalls, dependency bubbles, cache misses —
// for a hyper-threaded sibling to fill.
func soloOpsPerCycle(cpi, miss, penalty float64) float64 {
	return 1 / (cpi + miss*penalty)
}

// Logical is one schedulable CPU as seen by the OS.
type Logical struct {
	ID     int // 0..n-1, Linux-style: IDs [0,phys) are sibling 0, [phys,2*phys) sibling 1
	Phys   int
	Sib    int // 0 or 1
	online bool

	threads []*Thread // runnable threads currently assigned here
	busy    sim.Time  // accumulated busy time (≥1 thread assigned, not stalled)

	// stallDepth counts nested per-CPU stalls (core-scoped noise
	// sources stealing just this logical CPU), independent of the
	// node-global SMM stall; stolen accumulates the time lost to them.
	stallDepth int
	stolen     sim.Time
}

// Online reports whether the logical CPU is schedulable.
func (l *Logical) Online() bool { return l.online }

// Thread is a schedulable entity with compute demand.
type Thread struct {
	id    int
	name  string
	prof  Profile
	model *Model
	pin   int // logical CPU the thread is pinned to, -1 if unpinned

	job     job      // outstanding compute work, if job.active
	cpu     *Logical // current assignment, nil if none
	rate    float64  // current ops/sec
	osShare float64  // current share of a CPU as the OS accounts it

	// Accounting. OSTime is what the simulated kernel would charge the
	// thread (it cannot see SMM stalls); TrueTime is time the thread
	// actually made progress. The difference is SMM misattribution.
	osTime   sim.Time
	trueTime sim.Time
	done     float64 // total ops completed

	// lastCPU is the logical CPU the tracer last saw the thread on
	// (-1 = none); only maintained while a tracer is attached.
	lastCPU int
}

// job is a thread's outstanding compute work. It lives inside Thread,
// so starting one allocates nothing.
type job struct {
	active    bool
	remaining float64
	total     float64
	onDone    func()
}

// Model is the processor of one node.
type Model struct {
	eng *sim.Engine
	par Params
	// logical holds the CPUs in ID order. Linux numbering puts every
	// sibling-0 CPU before any sibling 1, each half in physical-core
	// order, so ID order is also the placement order: physical cores
	// first, hyper-threaded siblings second.
	logical  []*Logical
	threads  []*Thread // registered threads, in id order
	runnable []*Thread // threads with a job at the last assign, in id order

	// placed reports that the assignment still matches its inputs: the
	// set of threads with a job, their pins and the online mask. Every
	// change to one of them clears it, and the next reschedule reruns
	// assign; any other change keeps the placement and recomputes rates.
	placed bool
	// Scratch lists for assign, reused across calls.
	online   []*Logical
	unpinned []*Thread

	stalled    bool
	stallDepth int
	stallTime  sim.Time // accumulated all-core stall

	lastUpdate   sim.Time
	completion   *sim.Event
	completionFn func() // the completion timer's callback, built once
	nextTID      int

	tr   obs.Tracer // nil unless the run is traced
	node int32
}

// SetTracer attaches an observability tracer; scheduling events carry
// node as their node index. The first reschedule after attaching emits
// run events for threads already placed, snapshotting current state.
func (m *Model) SetTracer(tr obs.Tracer, node int) {
	m.tr = tr
	m.node = int32(node)
}

// New builds a processor model attached to engine e. With HTT enabled the
// model exposes 2×PhysCores logical CPUs, numbered like Linux: CPU i and
// CPU i+PhysCores are siblings on physical core i. All CPUs start online.
func New(e *sim.Engine, par Params) (*Model, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	m := &Model{eng: e, par: par}
	m.completionFn = func() {
		m.completion = nil
		m.Sync()
	}
	n := par.PhysCores
	if par.HTT {
		n *= 2
	}
	for i := 0; i < n; i++ {
		m.logical = append(m.logical, &Logical{
			ID:     i,
			Phys:   i % par.PhysCores,
			Sib:    i / par.PhysCores,
			online: true,
		})
	}
	m.lastUpdate = e.Now()
	return m, nil
}

// MustNew is New but panics on invalid parameters.
func MustNew(e *sim.Engine, par Params) *Model {
	m, err := New(e, par)
	if err != nil {
		panic(err)
	}
	return m
}

// Params returns the processor configuration.
func (m *Model) Params() Params { return m.par }

// NumLogical reports the number of logical CPUs (online or not).
func (m *Model) NumLogical() int { return len(m.logical) }

// NumOnline reports the number of online logical CPUs.
func (m *Model) NumOnline() int {
	n := 0
	for _, l := range m.logical {
		if l.online {
			n++
		}
	}
	return n
}

// Logical returns logical CPU id.
func (m *Model) Logical(id int) *Logical { return m.logical[id] }

// SetOnline onlines or offlines a logical CPU, like writing to
// /sys/devices/system/cpu/cpuN/online. Offlining a CPU migrates its
// threads elsewhere at the next reschedule.
func (m *Model) SetOnline(id int, online bool) error {
	if id < 0 || id >= len(m.logical) {
		return fmt.Errorf("cpu: no logical cpu %d", id)
	}
	if m.logical[id].online == online {
		return nil
	}
	m.advance()
	m.logical[id].online = online
	m.placed = false
	m.reschedule()
	return nil
}

// OnlineFirst onlines exactly n logical CPUs in the order the paper's
// methodology does: physical cores first (all siblings offlined), then
// hyper-threaded siblings. Returns an error if n is out of range.
func (m *Model) OnlineFirst(n int) error {
	if n < 1 || n > len(m.logical) {
		return fmt.Errorf("cpu: cannot online %d of %d CPUs", n, len(m.logical))
	}
	m.advance()
	for i, l := range m.logical {
		l.online = i < n
	}
	m.placed = false
	m.reschedule()
	return nil
}

// NewThread registers a thread with the given workload profile.
func (m *Model) NewThread(name string, prof Profile) *Thread {
	m.nextTID++
	t := &Thread{id: m.nextTID, name: name, prof: prof, model: m, pin: -1, lastCPU: -1}
	m.threads = append(m.threads, t)
	return t
}

// Pin restricts a thread to one logical CPU (sched_setaffinity with a
// single-CPU mask). If the CPU is offline when scheduling happens, the
// thread falls back to normal placement, like Linux does when an
// affinity mask becomes empty.
func (m *Model) Pin(t *Thread, logicalID int) error {
	if logicalID < 0 || logicalID >= len(m.logical) {
		return fmt.Errorf("cpu: no logical cpu %d", logicalID)
	}
	m.advance()
	t.pin = logicalID
	m.placed = false
	m.reschedule()
	return nil
}

// Unpin removes a thread's affinity restriction.
func (m *Model) Unpin(t *Thread) {
	m.advance()
	t.pin = -1
	m.placed = false
	m.reschedule()
}

// Remove unregisters a thread. Any outstanding job is abandoned.
func (m *Model) Remove(t *Thread) {
	m.advance()
	t.job = job{}
	if i := slices.Index(m.threads, t); i >= 0 {
		m.threads = slices.Delete(m.threads, i, i+1)
	}
	m.placed = false
	m.reschedule()
}

// SetProfile changes a thread's workload profile (takes effect at once).
func (m *Model) SetProfile(t *Thread, prof Profile) {
	m.advance()
	t.prof = prof
	m.reschedule()
}

// StartCompute enqueues ops operations for thread t; onDone fires (as an
// engine event) when they complete. A thread can have one job at a time.
func (m *Model) StartCompute(t *Thread, ops float64, onDone func()) {
	if t.job.active {
		panic(fmt.Sprintf("cpu: thread %q already computing", t.name))
	}
	if ops <= 0 {
		// Degenerate job: complete immediately (still via event for
		// deterministic ordering).
		m.eng.At(m.eng.Now(), onDone)
		return
	}
	m.advance()
	t.job = job{active: true, remaining: ops, total: ops, onDone: onDone}
	m.placed = false
	m.reschedule()
}

// Compute runs ops operations on t, blocking the calling process until
// the work completes.
func (t *Thread) Compute(p *sim.Proc, ops float64) {
	t.model.StartCompute(t, ops, p.Resumer())
	p.Park()
}

// Stall freezes every logical CPU (System Management Mode entry). Nested
// stalls are reference-counted; the processor resumes when every Stall has
// been matched by an Unstall.
func (m *Model) Stall() {
	m.advance()
	m.stallDepth++
	m.stalled = true
	m.reschedule()
}

// Unstall releases one Stall.
func (m *Model) Unstall() {
	m.advance()
	if m.stallDepth > 0 {
		m.stallDepth--
	}
	m.stalled = m.stallDepth > 0
	m.reschedule()
}

// Stalled reports whether the processor is currently in SMM.
func (m *Model) Stalled() bool { return m.stalled }

// StallCPU freezes one logical CPU: a core-scoped perturbation source
// (an OS daemon tick, say) owns it until the matching UnstallCPU.
// Unlike the invisible node-global Stall, the kernel sees this
// preemption — the frozen thread is neither progressing nor charged.
// Per-CPU stalls nest and compose with the global stall.
func (m *Model) StallCPU(id int) {
	m.advance()
	m.logical[id].stallDepth++
	m.reschedule()
}

// UnstallCPU releases one StallCPU on logical CPU id.
func (m *Model) UnstallCPU(id int) {
	m.advance()
	if l := m.logical[id]; l.stallDepth > 0 {
		l.stallDepth--
	}
	m.reschedule()
}

// CPUStalled reports whether logical CPU id is per-CPU stalled.
func (m *Model) CPUStalled(id int) bool { return m.logical[id].stallDepth > 0 }

// TotalStallTime reports accumulated all-core stall time.
func (m *Model) TotalStallTime() sim.Time { return m.stallTime }

// OSTime reports the CPU time the kernel would account to t (including
// invisible SMM residency).
func (t *Thread) OSTime() sim.Time { return t.osTime }

// TrueTime reports the CPU time during which t actually progressed.
func (t *Thread) TrueTime() sim.Time { return t.trueTime }

// OpsDone reports the total operations t has completed.
func (t *Thread) OpsDone() float64 { return t.done }

// Name reports the thread's name.
func (t *Thread) Name() string { return t.name }

// Busy reports logical CPU l's accumulated non-idle, non-stalled time.
func (l *Logical) Busy() sim.Time { return l.busy }

// Stolen reports the time core-scoped noise sources have stolen from l
// (per-CPU stalls while work was assigned; node-global SMM residency is
// accounted separately via Model.TotalStallTime).
func (l *Logical) Stolen() sim.Time { return l.stolen }

// Threads returns the runnable threads currently assigned to l (valid
// until the next reschedule; callers that need an up-to-date view should
// call Model.Sync first).
func (l *Logical) Threads() []*Thread {
	out := make([]*Thread, len(l.threads))
	copy(out, l.threads)
	return out
}

// reschedule follows every change to the model: callers advance to now,
// apply their change, clear placed if it was a placement input, and call
// it. It completes finished jobs, reruns assign when the placement is
// stale, recomputes rates and re-arms the completion timer. The timer is
// canceled and re-armed on every call, so the engine sees the same
// At/Cancel sequence whether or not assign ran.
func (m *Model) reschedule() {
	m.finishJobs()
	if !m.placed {
		m.assign()
	}
	if m.tr != nil {
		m.emitSched()
	}
	m.rates()
	m.scheduleCompletion()
}

// emitSched diffs every thread's placement against what the tracer last
// saw and emits run/preempt/migrate events, visiting threads in id order
// so traced runs stay deterministic. It runs on every traced reschedule,
// so the first one after SetTracer snapshots the current placement.
func (m *Model) emitSched() {
	now := m.eng.Now()
	for _, t := range m.threads {
		cur := -1
		if t.cpu != nil {
			cur = t.cpu.ID
		}
		last := t.lastCPU
		if cur == last {
			continue
		}
		t.lastCPU = cur
		switch {
		case last < 0:
			m.tr.Emit(obs.Event{Time: now, Type: obs.EvSchedRun, Node: m.node,
				Track: int32(cur), A: int64(t.id), Name: t.name})
		case cur < 0:
			m.tr.Emit(obs.Event{Time: now, Type: obs.EvSchedPreempt, Node: m.node,
				Track: int32(last), A: int64(t.id), Name: t.name})
		default:
			m.tr.Emit(obs.Event{Time: now, Type: obs.EvSchedMigrate, Node: m.node,
				Track: int32(cur), A: int64(t.id), B: int64(last), Name: t.name})
		}
	}
}

// advance integrates job progress and accounting from lastUpdate to now.
func (m *Model) advance() {
	now := m.eng.Now()
	dt := now - m.lastUpdate
	m.lastUpdate = now
	if dt <= 0 {
		return
	}
	fdt := float64(dt) / float64(sim.Second)
	if m.stalled {
		m.stallTime += dt
	}
	for _, t := range m.runnable {
		if !t.job.active || t.cpu == nil {
			continue
		}
		t.job.remaining -= t.rate * fdt
		t.done += t.rate * fdt
		// The kernel charges the thread for its schedule share of the
		// wall time, SMM included; true time only accrues when the
		// thread can actually execute.
		t.osTime += sim.Time(float64(dt) * t.osShare)
		if !m.stalled {
			t.trueTime += sim.Time(float64(dt) * t.osShare)
		}
	}
	if !m.stalled {
		for _, l := range m.logical {
			if !l.online || len(l.threads) == 0 {
				continue
			}
			if l.stallDepth > 0 {
				l.stolen += dt
				continue
			}
			l.busy += dt
		}
	}
}

// finishJobs completes jobs whose remaining work reached zero. Threads
// are visited in id order so completion callbacks fire deterministically.
func (m *Model) finishJobs() {
	for _, t := range m.threads {
		if !t.job.active || t.job.remaining > completionSlack(t.job.total) {
			continue
		}
		done := t.job.onDone
		t.job = job{}
		m.placed = false
		if done != nil {
			m.eng.At(m.eng.Now(), done)
		}
	}
}

// completionSlack is the op tolerance under which a job counts as done,
// absorbing float rounding from rate integration.
func completionSlack(total float64) float64 {
	s := total * 1e-12
	if s < 1e-6 {
		s = 1e-6
	}
	return s
}

// assign distributes runnable threads over online logical CPUs,
// physical-cores-first, round-robin.
func (m *Model) assign() {
	m.placed = true
	m.online = m.online[:0]
	for _, l := range m.logical {
		l.threads = l.threads[:0]
		if l.online {
			m.online = append(m.online, l)
		}
	}
	m.runnable = m.runnable[:0]
	for _, t := range m.threads {
		t.cpu = nil
		t.rate = 0
		t.osShare = 0
		if t.job.active {
			m.runnable = append(m.runnable, t)
		}
	}
	if len(m.online) == 0 {
		return
	}
	// Pinned threads first: they go exactly where their mask says (if
	// that CPU is online).
	m.unpinned = m.unpinned[:0]
	for _, t := range m.runnable {
		if t.pin >= 0 && m.logical[t.pin].online {
			l := m.logical[t.pin]
			l.threads = append(l.threads, t)
			t.cpu = l
			continue
		}
		m.unpinned = append(m.unpinned, t)
	}
	// Everyone else to the least-loaded online CPU, physical cores
	// first (ties resolve in sched order, keeping placement stable and
	// deterministic).
	for _, t := range m.unpinned {
		best := m.online[0]
		for _, l := range m.online[1:] {
			if len(l.threads) < len(best.threads) {
				best = l
			}
		}
		best.threads = append(best.threads, t)
		t.cpu = best
	}
}

// rates computes each runnable thread's ops/sec and OS share under the
// current assignment, sibling contention, bandwidth ceiling, and stall
// state. It sets both from scratch, so it may run again on an unchanged
// placement.
func (m *Model) rates() {
	for _, t := range m.runnable {
		t.rate = 0
		t.osShare = 0
	}
	if m.stalled {
		// No thread progresses, but the kernel still charges each its
		// share of the wall time — except where a daemon holds the CPU
		// under the SMM stall: the kernel charges the daemon instead.
		for _, t := range m.runnable {
			if t.cpu != nil && t.cpu.stallDepth == 0 {
				t.osShare = 1 / float64(len(t.cpu.threads))
			}
		}
		return
	}
	// Pass 1: issue-slot shares per physical core.
	for _, t := range m.runnable {
		if t.cpu == nil {
			continue
		}
		l := t.cpu
		if l.stallDepth > 0 {
			// Core-scoped steal: the thread neither progresses nor is
			// charged — the preemption is visible, the kernel accounts
			// the stealing daemon instead.
			continue
		}
		sib := m.sibling(l)
		sibBusy := sib != nil && sib.online && len(sib.threads) > 0
		miss := t.prof.MissRate
		if sibBusy {
			miss = t.prof.sharedMiss()
		}
		n := float64(len(l.threads))
		t.osShare = 1 / n
		if !sibBusy {
			// Whole core to this logical CPU; timeslice among threads.
			t.rate = m.par.BaseHz * soloOpsPerCycle(t.prof.CPI, miss, m.par.MissPenalty) / n
			continue
		}
		// Both siblings busy: this thread's issue-slot demand and the
		// sibling's average demand compete. A thread keeps its own
		// slots minus half of the overlap, derated by SMT front-end
		// efficiency, and cannot exceed its solo rate.
		u := soloOpsPerCycle(t.prof.CPI, miss, m.par.MissPenalty)
		us := m.avgOpsPerCycle(sib)
		// The thread concedes its configured slice of the overlap: the
		// symmetric default concedes half (0.5 is exact in binary, so
		// this is bit-identical to the historic us/2 formula); with an
		// asymmetric SMTShares entry, sibling 0 keeps share s of the
		// contested slots and concedes 1-s, sibling 1 the reverse.
		conceded := 0.5
		if l.Phys < len(m.par.SMTShares) {
			if s := m.par.SMTShares[l.Phys]; l.Sib == 0 {
				conceded = 1 - s
			} else {
				conceded = s
			}
		}
		opsPerCycle := m.par.SMTEfficiency * u * (1 - us*conceded)
		if opsPerCycle > u {
			opsPerCycle = u
		}
		t.rate = m.par.BaseHz * opsPerCycle / n
	}
	// Pass 2: memory bandwidth ceiling.
	if m.par.MemBandwidth > 0 {
		demand := 0.0
		for _, t := range m.runnable {
			demand += t.rate * m.effMiss(t)
		}
		if demand > m.par.MemBandwidth {
			scale := m.par.MemBandwidth / demand
			for _, t := range m.runnable {
				if m.effMiss(t) > 1e-6 {
					t.rate *= scale
				}
			}
		}
	}
}

// effMiss is the thread's memory-traffic rate per op for bandwidth
// accounting: MemMissRate when set, otherwise the stalling miss rate
// under the current cache-sharing state.
func (m *Model) effMiss(t *Thread) float64 {
	if t.prof.MemMissRate > 0 {
		return t.prof.MemMissRate
	}
	if t.cpu == nil {
		return t.prof.MissRate
	}
	sib := m.sibling(t.cpu)
	if sib != nil && sib.online && len(sib.threads) > 0 {
		return t.prof.sharedMiss()
	}
	return t.prof.MissRate
}

// avgOpsPerCycle is the average issue-slot demand of the threads on
// logical CPU l (each runs 1/n of the time, so the time-averaged demand
// is the mean).
func (m *Model) avgOpsPerCycle(l *Logical) float64 {
	if len(l.threads) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range l.threads {
		sum += soloOpsPerCycle(t.prof.CPI, t.prof.sharedMiss(), m.par.MissPenalty)
	}
	return sum / float64(len(l.threads))
}

func (m *Model) sibling(l *Logical) *Logical {
	if !m.par.HTT {
		return nil
	}
	if l.Sib == 0 {
		return m.logical[l.ID+m.par.PhysCores]
	}
	return m.logical[l.ID-m.par.PhysCores]
}

// scheduleCompletion arms an event for the earliest job completion.
func (m *Model) scheduleCompletion() {
	if m.completion != nil {
		m.eng.Cancel(m.completion)
		m.completion = nil
	}
	best := sim.Forever
	for _, t := range m.runnable {
		if !t.job.active || t.rate <= 0 {
			continue
		}
		sec := t.job.remaining / t.rate
		at := m.eng.Now() + sim.Time(math.Ceil(sec*float64(sim.Second)))
		if at <= m.eng.Now() {
			at = m.eng.Now() + 1
		}
		if at < best {
			best = at
		}
	}
	if best != sim.Forever {
		m.completion = m.eng.At(best, m.completionFn)
	}
}

// Sync integrates progress and accounting up to the current instant so
// counters (Busy, TotalStallTime, per-thread times) are exact when read
// between events.
func (m *Model) Sync() {
	m.advance()
	m.reschedule()
}

// Utilization reports the mean busy fraction of online logical CPUs over
// the elapsed simulation time (0 if no time has passed).
func (m *Model) Utilization() float64 {
	now := m.eng.Now()
	if now == 0 {
		return 0
	}
	var sum float64
	n := 0
	for _, l := range m.logical {
		if l.online {
			sum += float64(l.busy) / float64(now)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
