// Package nas implements computation/communication skeletons of the NAS
// Parallel Benchmarks the paper measures: EP (Embarrassingly Parallel),
// BT (Block Tri-diagonal solver) and FT (3-D FFT), in problem classes S,
// A, B and C.
//
// A skeleton executes the benchmark's real communication pattern — EP's
// terminal all-reduces, BT's per-iteration neighbor face exchanges on a
// square process grid, FT's per-iteration all-to-all transpose plus
// checksum all-reduce — while replacing the numerical kernels by
// calibrated amounts of abstract compute. Because SMI impact is governed
// by compute volume, communication pattern and synchronization frequency,
// the skeletons respond to injected SMM noise the way the real codes do.
//
// Calibration: per-class total operation counts are fixed so that a
// single-rank run on the Wyeast node preset (Xeon E5520, 2.27 GHz)
// reproduces the paper's SMM-0 baseline within a few percent; see
// params.go.
package nas

import (
	"fmt"
	"math"

	"smistudy/internal/kernel"
	"smistudy/internal/mpi"
	"smistudy/internal/sim"
)

// Benchmark names a NAS benchmark.
type Benchmark string

// The benchmarks in the paper's study.
const (
	EP Benchmark = "EP"
	BT Benchmark = "BT"
	FT Benchmark = "FT"
)

// Class is an NPB problem class.
type Class byte

// Problem classes: S is the tiny self-test class; A, B and C are the
// classes the paper measures.
const (
	ClassS Class = 'S'
	ClassA Class = 'A'
	ClassB Class = 'B'
	ClassC Class = 'C'
)

// Spec selects a benchmark instance.
type Spec struct {
	Bench Benchmark
	Class Class
}

// String formats the spec like NPB binaries do ("bt.A").
func (s Spec) String() string {
	return fmt.Sprintf("%s.%c", string(s.Bench), byte(s.Class))
}

// Result is one benchmark run's outcome.
type Result struct {
	Spec     Spec
	Ranks    int
	Time     sim.Time // benchmark-timed section (what NPB prints)
	MOPs     float64  // model mega-ops per second
	Verified bool     // skeleton invariants held on every rank
}

// Run executes the benchmark on an MPI world and reports the result.
// The world's engine is consumed (run to completion).
func Run(w *mpi.World, spec Spec) (Result, error) {
	pb, err := lookup(spec)
	if err != nil {
		return Result{}, err
	}
	p := w.Size()
	if err := pb.checkRanks(p); err != nil {
		return Result{}, err
	}

	var maxEnd sim.Time
	verified := true
	iterDone := make([]int, p)

	_, err = w.RunE(pb.profile, func(r *mpi.Rank, t *kernel.Task) {
		iters := pb.run(r, t, p)
		iterDone[r.ID()] = iters
		if end := t.Gettime(); end > maxEnd {
			maxEnd = end
		}
	})
	if err != nil {
		// Faulted run: report how far the job got before failing, with
		// the transport/watchdog error attached (callers distinguish
		// crash-abort from no-progress via errors.Is / errors.As).
		return Result{Spec: spec, Ranks: p, Time: maxEnd}, err
	}
	for _, it := range iterDone {
		if it != iterDone[0] {
			verified = false
		}
	}
	if spec.Bench == EP && spec.Class == ClassS {
		// For the self-test class, also run the *real* EP mathematics:
		// the parallel decomposition (what the skeleton's ranks stand in
		// for) must reproduce the serial reference exactly — the NPB
		// verification stage in miniature.
		const pairs = 1 << 18
		serial := EPKernel(DefaultEPSeed, pairs)
		par := EPKernelParallel(DefaultEPSeed, pairs, p)
		if par.Accepted != serial.Accepted || par.Q != serial.Q {
			verified = false
		}
	}
	sec := maxEnd.Seconds()
	mops := 0.0
	if sec > 0 {
		mops = pb.totalOps / 1e6 / sec
	}
	return Result{
		Spec:     spec,
		Ranks:    p,
		Time:     maxEnd,
		MOPs:     mops,
		Verified: verified,
	}, nil
}

// checkRanks validates the rank count for the benchmark's decomposition.
func (pb *problem) checkRanks(p int) error {
	if p < 1 {
		return fmt.Errorf("nas: %d ranks", p)
	}
	switch pb.spec.Bench {
	case BT:
		q := int(math.Round(math.Sqrt(float64(p))))
		if q*q != p {
			return fmt.Errorf("nas: BT needs a square rank count, got %d", p)
		}
	case EP, FT:
		if p&(p-1) != 0 {
			return fmt.Errorf("nas: %s needs a power-of-two rank count, got %d", pb.spec.Bench, p)
		}
	default:
		return checkRanksExtended(pb.spec.Bench, p)
	}
	return nil
}

// --- benchmark skeletons -------------------------------------------------

// runEP: each rank generates its share of random pairs (pure compute,
// in a few batches like the real code's k-loop), then the ranks combine
// their Gaussian-pair counts with three small all-reduces.
func (pb *problem) runEP(r *mpi.Rank, t *kernel.Task, p int) int {
	share := pb.totalOps / float64(p)
	const batches = 16
	for b := 0; b < batches; b++ {
		t.Compute(share / batches)
	}
	// sx, sy sums and the 10-bin q[] counts.
	r.Allreduce(t, 8)
	r.Allreduce(t, 8)
	r.Allreduce(t, 80)
	return batches
}

// runBT: square process grid, niter iterations; each iteration computes
// the RHS and performs the three directional solves, each of which
// exchanges cell faces with the two neighbors in that direction.
func (pb *problem) runBT(r *mpi.Rank, t *kernel.Task, p int) int {
	q := int(math.Round(math.Sqrt(float64(p))))
	row, col := r.ID()/q, r.ID()%q
	opsPerIter := pb.totalOps / float64(pb.iters) / float64(p)
	face := pb.faceBytes(q)

	for iter := 0; iter < pb.iters; iter++ {
		// compute_rhs + the local work of the three solves.
		t.Compute(opsPerIter)
		if p == 1 {
			continue
		}
		// x-sweep: exchange with row neighbors (wraparound like the
		// multi-partition scheme).
		left := row*q + (col+q-1)%q
		right := row*q + (col+1)%q
		r.Sendrecv(t, right, iterTag(iter, 0), face, left, iterTag(iter, 0))
		r.Sendrecv(t, left, iterTag(iter, 1), face, right, iterTag(iter, 1))
		// y-sweep: exchange with column neighbors.
		up := ((row+q-1)%q)*q + col
		down := ((row+1)%q)*q + col
		r.Sendrecv(t, down, iterTag(iter, 2), face, up, iterTag(iter, 2))
		r.Sendrecv(t, up, iterTag(iter, 3), face, down, iterTag(iter, 3))
		// z-sweep: cells are contiguous in z in the 2-D decomposition;
		// the multi-partition scheme still shifts boundary data along
		// the diagonal.
		diag := ((row+1)%q)*q + (col+1)%q
		anti := ((row+q-1)%q)*q + (col+q-1)%q
		r.Sendrecv(t, diag, iterTag(iter, 4), face, anti, iterTag(iter, 4))
	}
	if p > 1 {
		// Verification: residual norms.
		r.Allreduce(t, 40)
	}
	return pb.iters
}

// runFT: one warm-up evolve, then niter iterations of local FFT work, a
// global transpose (all-to-all) and a checksum all-reduce.
func (pb *problem) runFT(r *mpi.Rank, t *kernel.Task, p int) int {
	opsPerIter := pb.totalOps / float64(pb.iters) / float64(p)
	perPair := 0
	if p > 1 {
		perPair = int(pb.gridBytes) / (p * p)
	}
	for iter := 0; iter < pb.iters; iter++ {
		t.Compute(opsPerIter)
		if p > 1 {
			r.Alltoall(t, perPair)
		} else {
			r.Alltoall(t, int(pb.gridBytes))
		}
		// Complex checksum.
		r.Allreduce(t, 16)
	}
	return pb.iters
}

// iterTag builds distinct non-negative tags for BT's per-iteration
// exchanges.
func iterTag(iter, phase int) int { return iter*8 + phase }
