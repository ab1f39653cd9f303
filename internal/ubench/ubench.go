// Package ubench models the UnixBench micro-benchmarks the paper selects
// — Dhrystone, Whetstone, Pipe Throughput, Pipe-based Context Switching
// and System Call Overhead — and scores them with the real UnixBench
// algorithm: each test's rate is divided by the classic SPARCstation
// 20-61 baseline and multiplied by 10, and the run's index is the
// geometric mean of the per-test indices. Following UnixBench's default
// configuration, every test runs twice: once with a single copy and once
// with one copy per online CPU.
//
// Hot loops are batched: the cost of one loop iteration is computed from
// the kernel's cost model and charged in multi-millisecond compute
// batches, with one real pipe round trip per batch to keep the kernel
// machinery exercised. Under the simulator's fluid CPU model this is
// timing-equivalent to executing every iteration and keeps event counts
// tractable.
package ubench

import (
	"fmt"

	"smistudy/internal/cluster"
	"smistudy/internal/cpu"
	"smistudy/internal/kernel"
	"smistudy/internal/metrics"
	"smistudy/internal/sim"
)

// Benchmark describes one UnixBench test.
type Benchmark struct {
	Name     string
	Baseline float64 // classic UnixBench baseline rate (units/sec)
	Unit     string
	run      func(k *kernel.Kernel, copies int, dur sim.Time, done func(rate float64))
}

// Config controls a run.
type Config struct {
	// Duration per test run (UnixBench uses 10 s; shorter keeps
	// simulations cheap and is long enough to integrate SMI noise).
	Duration sim.Time
	// Copies for the multi-copy pass; 0 means one per online CPU.
	Copies int
	// Tests to run; nil means Selected (the paper's subset).
	Tests []*Benchmark
}

// DefaultConfig matches the paper's usage with a 4-second window.
func DefaultConfig() Config { return Config{Duration: 4 * sim.Second} }

// TestScore is one benchmark's outcome.
type TestScore struct {
	Name        string
	Unit        string
	SingleRate  float64
	MultiRate   float64
	MultiCopies int
	SingleIndex float64
	MultiIndex  float64
}

// Result is a whole UnixBench iteration.
type Result struct {
	Tests []TestScore
	// Score is the run's total index: the geometric mean of all single-
	// and multi-copy indices, like UnixBench's "System Benchmarks Index
	// Score".
	Score float64
}

// Workload constants.
const (
	dhryOpsPerLoop = 320 // one Dhrystone loop: string ops, branches
	whetCPI        = 3.0 // FP latency chains
	pipeMsgBytes   = 512 // pipe throughput block size
	ctxTokenBytes  = 4   // context-switch test passes an int
	batchOps       = 2e6 // target compute ops per accounting batch
)

// Selected returns the paper's benchmark subset.
func Selected() []*Benchmark {
	return []*Benchmark{
		Dhrystone(),
		Whetstone(),
		PipeThroughput(),
		PipeContextSwitch(),
		SyscallOverhead(),
	}
}

func osProfile() cpu.Profile { return cpu.Profile{CPI: 1, MissRate: 0.0005} }

// Dhrystone performs various string manipulations (integer/branch code;
// latency gaps let HTT help).
func Dhrystone() *Benchmark {
	b := &Benchmark{Name: "Dhrystone 2", Baseline: 116700, Unit: "lps"}
	prof := cpu.Profile{CPI: 1.45, MissRate: 0.0004, MissRateShared: 0.0006}
	b.run = func(k *kernel.Kernel, copies int, dur sim.Time, done func(float64)) {
		runCopies(k, prof, copies, dur, done, func(t *kernel.Task, deadline sim.Time) float64 {
			loops := 0.0
			batch := batchOps / dhryOpsPerLoop
			for t.Gettime() < deadline {
				t.Compute(batch * dhryOpsPerLoop)
				loops += batch
			}
			return loops
		})
	}
	return b
}

// Whetstone measures floating-point performance via mathematical
// functions (sin, cos, sqrt — long dependency chains). Rates are MWIPS.
func Whetstone() *Benchmark {
	b := &Benchmark{Name: "Double-Precision Whetstone", Baseline: 55.0, Unit: "MWIPS"}
	prof := cpu.Profile{CPI: whetCPI, MissRate: 0.0002, MissRateShared: 0.0003}
	b.run = func(k *kernel.Kernel, copies int, dur sim.Time, done func(float64)) {
		runCopies(k, prof, copies, dur, func(r float64) { done(r / 1e6) },
			func(t *kernel.Task, deadline sim.Time) float64 {
				wis := 0.0
				for t.Gettime() < deadline {
					t.Compute(batchOps)
					wis += batchOps
				}
				return wis
			})
	}
	return b
}

// PipeThroughput measures writing 512 bytes to a pipe and reading them
// back.
func PipeThroughput() *Benchmark {
	b := &Benchmark{Name: "Pipe Throughput", Baseline: 12440, Unit: "lps"}
	b.run = func(k *kernel.Kernel, copies int, dur sim.Time, done func(float64)) {
		runCopies(k, osProfile(), copies, dur, done, func(t *kernel.Task, deadline sim.Time) float64 {
			p := k.NewPipe(2 * pipeMsgBytes)
			par := k.Params()
			// One loop: write(512)+read(512) = 2 syscalls + 2 copies.
			loopOps := 2*par.SyscallOps + 2*pipeMsgBytes*par.CopyOpsPerByte
			batch := batchOps / loopOps
			loops := 0.0
			for t.Gettime() < deadline {
				// Charge a batch, then do one real round trip.
				t.Compute((batch - 1) * loopOps)
				if _, err := p.Write(t, pipeMsgBytes); err != nil {
					panic(err)
				}
				if _, err := p.Read(t, pipeMsgBytes); err != nil {
					panic(err)
				}
				loops += batch
			}
			return loops
		})
	}
	return b
}

// PipeContextSwitch measures two processes exchanging an increasing
// integer through a pair of pipes. The exchange is inherently serial —
// each side runs only while the other waits — so a batch charges both
// sides' costs on the driving task and performs one real round trip with
// the partner per batch.
func PipeContextSwitch() *Benchmark {
	b := &Benchmark{Name: "Pipe-based Context Switching", Baseline: 4000, Unit: "lps"}
	b.run = func(k *kernel.Kernel, copies int, dur sim.Time, done func(float64)) {
		runCopies(k, osProfile(), copies, dur, done, func(t *kernel.Task, deadline sim.Time) float64 {
			ping := k.NewPipe(64)
			pong := k.NewPipe(64)
			par := k.Params()
			stop := false
			partner := k.Spawn(t.Name()+"-partner", osProfile(), func(pt *kernel.Task) {
				for {
					if _, err := ping.Read(pt, ctxTokenBytes); err != nil {
						panic(err)
					}
					if stop {
						return
					}
					if _, err := pong.Write(pt, ctxTokenBytes); err != nil {
						panic(err)
					}
				}
			})
			// One round, per side: write + read syscalls, a wakeup
			// context switch, two token copies.
			sideOps := 2*par.SyscallOps + par.CtxSwitchOps + 2*ctxTokenBytes*par.CopyOpsPerByte
			roundOps := 2 * sideOps
			batch := batchOps / roundOps
			loops := 0.0
			for t.Gettime() < deadline {
				t.Compute((batch - 1) * roundOps)
				if _, err := ping.Write(t, ctxTokenBytes); err != nil {
					panic(err)
				}
				if _, err := pong.Read(t, ctxTokenBytes); err != nil {
					panic(err)
				}
				loops += batch
			}
			stop = true
			if _, err := ping.Write(t, ctxTokenBytes); err != nil {
				panic(err)
			}
			t.Join(partner)
			return loops
		})
	}
	return b
}

// SyscallOverhead measures how quickly a process can enter and exit
// system calls (getpid-style null syscalls).
func SyscallOverhead() *Benchmark {
	b := &Benchmark{Name: "System Call Overhead", Baseline: 15000, Unit: "lps"}
	b.run = func(k *kernel.Kernel, copies int, dur sim.Time, done func(float64)) {
		runCopies(k, osProfile(), copies, dur, done, func(t *kernel.Task, deadline sim.Time) float64 {
			loops := 0.0
			batch := batchOps / k.Params().SyscallOps
			for t.Gettime() < deadline {
				t.Compute(batch * k.Params().SyscallOps)
				loops += batch
			}
			return loops
		})
	}
	return b
}

// runCopies spawns `copies` identical workers and reports the summed
// rate over the window (units per second of simulated wall time).
func runCopies(k *kernel.Kernel, prof cpu.Profile, copies int, dur sim.Time, done func(float64), body func(t *kernel.Task, deadline sim.Time) float64) {
	total := 0.0
	remaining := copies
	started := k.Clock().Monotonic()
	for i := 0; i < copies; i++ {
		k.Spawn(fmt.Sprintf("ub-copy%d", i), prof, func(t *kernel.Task) {
			total += body(t, started+dur)
			remaining--
			if remaining == 0 {
				elapsed := t.Gettime() - started
				done(total / elapsed.Seconds())
			}
		})
	}
}

// Run executes the benchmark suite on the first node of cl, driving the
// engine to completion of the suite (the engine is then stopped). SMI
// drivers must be armed by the caller beforehand if desired.
func Run(cl *cluster.Cluster, cfg Config) Result {
	node := cl.Nodes[0]
	k := node.Kernel
	if cfg.Duration <= 0 {
		cfg.Duration = 4 * sim.Second
	}
	tests := cfg.Tests
	if tests == nil {
		tests = Selected()
	}
	multiCopies := cfg.Copies
	if multiCopies <= 0 {
		multiCopies = node.CPU.NumOnline()
	}

	var res Result
	controllerDone := false
	cl.Eng.Go("unixbench", func(p *sim.Proc) {
		resume := p.Resumer()
		for _, b := range tests {
			score := TestScore{Name: b.Name, Unit: b.Unit, MultiCopies: multiCopies}
			for pi, pass := range []int{1, multiCopies} {
				rate := 0.0
				b.run(k, pass, cfg.Duration, func(r float64) { rate = r; resume() })
				p.Park()
				if pi == 0 {
					score.SingleRate = rate
					score.SingleIndex = rate / b.Baseline * 10
				} else {
					score.MultiRate = rate
					score.MultiIndex = rate / b.Baseline * 10
				}
			}
			res.Tests = append(res.Tests, score)
		}
		controllerDone = true
		cl.Eng.Stop()
	})
	cl.Eng.Run()
	if !controllerDone {
		panic("ubench: suite never finished")
	}

	var indices []float64
	for _, ts := range res.Tests {
		indices = append(indices, ts.SingleIndex, ts.MultiIndex)
	}
	res.Score = metrics.GeoMean(indices)
	return res
}
