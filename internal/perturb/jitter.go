package perturb

import (
	"fmt"
	"math/rand"

	"smistudy/internal/obs"
	"smistudy/internal/sim"
)

// JitterFamily is the family name of the OS/daemon-jitter source.
const JitterFamily = "osjitter"

// JitterConfig parameterizes one OS-jitter source: per-CPU daemon
// ticks with independently jittered period and duration, replayable
// from the seed like fault schedules.
type JitterConfig struct {
	// Period is the mean gap between ticks on each target CPU.
	Period sim.Time
	// Duration is the mean length of one tick's steal.
	Duration sim.Time
	// Jitter is the uniform fractional spread applied independently to
	// every period and duration draw: a value x is drawn from
	// [x·(1-Jitter), x·(1+Jitter)). Zero means strictly periodic.
	Jitter float64
	// Seed selects the schedule. Each target CPU mixes its id into the
	// seed, so streams are independent per CPU and the schedule does
	// not depend on event interleaving with the rest of the sim.
	Seed int64
	// CPUs lists the target logical CPUs; empty means all of them.
	CPUs []int
}

// Validate rejects non-runnable configs.
func (c JitterConfig) Validate() error {
	if c.Period <= 0 {
		return fmt.Errorf("perturb: jitter period must be positive, got %v", c.Period)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("perturb: jitter duration must be positive, got %v", c.Duration)
	}
	if c.Duration >= c.Period {
		return fmt.Errorf("perturb: jitter duration %v must be shorter than period %v", c.Duration, c.Period)
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		return fmt.Errorf("perturb: jitter fraction must be in [0,1), got %g", c.Jitter)
	}
	for _, id := range c.CPUs {
		if id < 0 {
			return fmt.Errorf("perturb: negative jitter target CPU %d", id)
		}
	}
	return nil
}

// Jitter models per-core OS/daemon noise (Cui et al.'s OpenMP runtime
// variability generalized): each target CPU is periodically stolen for
// a short tick, visible to the OS — the kernel charges the daemon, not
// the preempted thread. It is the second noise family after SMM.
type Jitter struct {
	eng *sim.Engine
	cpu CPUStaller
	cfg JitterConfig

	running bool
	streams []*jitterStream
	// eps is the completed-steal log in chunks of episodeChunk. A run
	// logs tens of thousands of steals; one growing slice would hold
	// most of the log twice while append copies it, and the log is by
	// far the largest thing a jittered cell keeps live.
	eps    [][]Episode
	stolen sim.Time

	tr   obs.Tracer // nil unless the run is traced
	node int32
}

// jitterStream is one target CPU's independent tick schedule. The
// stream owns its RNG: draws happen in a fixed per-CPU order, so the
// schedule is a pure function of (seed, cpu) no matter what else the
// engine interleaves.
type jitterStream struct {
	j    *Jitter
	cpu  int
	rng  *rand.Rand
	next *sim.Event // pending tick, nil while idle or mid-steal

	// The steal in flight, from the tick that stalls the CPU to the
	// steal end that unstalls it.
	stealing   bool
	start, dur sim.Time

	// tickFn and endFn are the stream's tick and steal-end callbacks,
	// built once so a tick schedules no new closure.
	tickFn, endFn func()
}

// NewJitter builds a jitter source against a processor model. The
// config must validate; target CPUs must exist on the model.
func NewJitter(eng *sim.Engine, cpu CPUStaller, cfg JitterConfig) (*Jitter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	targets := cfg.CPUs
	if len(targets) == 0 {
		targets = make([]int, cpu.NumLogical())
		for i := range targets {
			targets[i] = i
		}
	}
	j := &Jitter{eng: eng, cpu: cpu, cfg: cfg}
	for _, id := range targets {
		if id >= cpu.NumLogical() {
			return nil, fmt.Errorf("perturb: jitter target CPU %d out of range (%d logical)", id, cpu.NumLogical())
		}
		s := &jitterStream{
			j:   j,
			cpu: id,
			rng: rand.New(rand.NewSource(DeriveSeed(cfg.Seed, uint64(id)))),
		}
		s.tickFn, s.endFn = s.tick, s.end
		j.streams = append(j.streams, s)
	}
	return j, nil
}

// SetTracer attaches an observability tracer; events carry node as
// their node index. A nil tracer disables emission.
func (j *Jitter) SetTracer(tr obs.Tracer, node int) {
	j.tr = tr
	j.node = int32(node)
}

// Meta identifies the family: core-scoped and OS-visible.
func (j *Jitter) Meta() Meta {
	return Meta{Family: JitterFamily, Scope: ScopeCore, Visible: true}
}

// Config returns the source's configuration.
func (j *Jitter) Config() JitterConfig { return j.cfg }

// Start arms a tick on every target CPU. Restarting after Stop
// continues each CPU's stream where it left off; a CPU still in the
// steal it began before Stop arms its next tick when that steal ends,
// so it never runs two tick chains.
func (j *Jitter) Start() {
	if j.running {
		return
	}
	j.running = true
	for _, s := range j.streams {
		if !s.stealing {
			s.arm()
		}
	}
}

// Stop cancels pending ticks. In-flight steals complete normally so no
// CPU is left stalled.
func (j *Jitter) Stop() {
	if !j.running {
		return
	}
	j.running = false
	for _, s := range j.streams {
		if s.next != nil {
			j.eng.Cancel(s.next)
			s.next = nil
		}
	}
}

// Running reports whether the source is armed.
func (j *Jitter) Running() bool { return j.running }

// episodeChunk is the number of episodes in one chunk of the log.
const episodeChunk = 1024

// Episodes returns the completed-steal ground-truth log, as a fresh
// slice on every call.
func (j *Jitter) Episodes() []Episode {
	var eps []Episode
	for _, c := range j.eps {
		eps = append(eps, c...)
	}
	return eps
}

// Stolen is the total residency stolen across all target CPUs.
func (j *Jitter) Stolen() sim.Time { return j.stolen }

// arm schedules the stream's next tick one jittered period from now.
func (s *jitterStream) arm() {
	j := s.j
	s.next = j.eng.After(jittered(s.rng, j.cfg.Period, j.cfg.Jitter), s.tickFn)
}

// tick steals the CPU for one jittered duration.
func (s *jitterStream) tick() {
	j := s.j
	s.next = nil
	s.dur = jittered(s.rng, j.cfg.Duration, j.cfg.Jitter)
	s.start = j.eng.Now()
	s.stealing = true
	j.cpu.StallCPU(s.cpu)
	if j.tr != nil {
		j.tr.Emit(obs.Event{Time: s.start, Type: obs.EvStealEnter, Node: j.node, Track: int32(s.cpu), Name: JitterFamily})
	}
	j.eng.After(s.dur, s.endFn)
}

// end returns the CPU, logs the steal and, while the source runs, arms
// the next tick.
func (s *jitterStream) end() {
	j := s.j
	s.stealing = false
	j.cpu.UnstallCPU(s.cpu)
	if n := len(j.eps); n == 0 || len(j.eps[n-1]) == episodeChunk {
		j.eps = append(j.eps, make([]Episode, 0, episodeChunk))
	}
	last := &j.eps[len(j.eps)-1]
	*last = append(*last, Episode{CPU: s.cpu, Start: s.start, Duration: s.dur})
	j.stolen += s.dur
	if j.tr != nil {
		j.tr.Emit(obs.Event{Time: j.eng.Now(), Dur: s.dur, Type: obs.EvStealExit, Node: j.node, Track: int32(s.cpu), Name: JitterFamily})
	}
	if j.running {
		s.arm()
	}
}

// jittered draws base scaled by a uniform factor in [1-frac, 1+frac),
// clamped to at least one tick so schedules always advance.
func jittered(rng *rand.Rand, base sim.Time, frac float64) sim.Time {
	if frac <= 0 {
		return base
	}
	d := sim.Time(float64(base) * (1 + frac*(2*rng.Float64()-1)))
	if d < 1 {
		d = 1
	}
	return d
}
