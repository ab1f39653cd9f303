// Package cache models the cache behaviour of simulated workloads.
//
// The model is deliberately analytic rather than trace-driven: a workload
// is summarized by its hot working-set size, access stride, and temporal
// reuse, and the hierarchy maps that summary to a miss rate. This is the
// same level of description the paper uses (Convolve configurations were
// classified as ~1 % and ~70 % miss rates with cachegrind), so it is
// sufficient to reproduce the cache-friendly / cache-unfriendly split and
// the effect of hyper-threaded siblings sharing a cache.
package cache

import "math"

// Hierarchy describes a per-core cache hierarchy. Sizes are bytes.
// LLC is the last-level cache capacity reachable by one core; under
// hyper-threading the two siblings of a physical core share it.
type Hierarchy struct {
	L1D      int64 // level-1 data cache per physical core
	L2       int64 // level-2 cache per physical core
	LLC      int64 // last-level cache share per physical core
	LineSize int64 // cache line size in bytes
}

// WyeastNode is the hierarchy of the paper's Xeon E5520 cluster nodes
// (32 KiB L1D, 256 KiB L2 per core, 8 MiB shared L3 across 4 cores).
func WyeastNode() Hierarchy {
	return Hierarchy{L1D: 32 << 10, L2: 256 << 10, LLC: 2 << 20, LineSize: 64}
}

// R410Node is the hierarchy of the paper's Dell PowerEdge R410 (Xeon
// E5620) multithreading test machines.
func R410Node() Hierarchy {
	return Hierarchy{L1D: 32 << 10, L2: 256 << 10, LLC: 3 << 20, LineSize: 64}
}

// Access summarizes a thread's memory reference behaviour.
type Access struct {
	// WorkingSet is the number of bytes the thread touches repeatedly.
	WorkingSet int64
	// Stride is the average distance in bytes between consecutive
	// references. Stride ≥ LineSize means every reference starts a new
	// line (no spatial locality); stride 8 means 8 consecutive doubles
	// share a 64-byte line.
	Stride int64
	// Reuse is the average number of times a resident line is
	// re-referenced thanks to temporal locality (0 = streaming).
	Reuse float64
}

// MissRate estimates the fraction of references that miss in the whole
// hierarchy (and therefore pay a memory access), assuming the thread has
// the full hierarchy to itself.
func (h Hierarchy) MissRate(a Access) float64 {
	return h.missRate(a, 1)
}

// SharedMissRate estimates the miss rate when `sharers` threads with the
// same access pattern share the hierarchy (e.g. two hyper-threaded
// siblings): each effectively sees 1/sharers of every level.
func (h Hierarchy) SharedMissRate(a Access, sharers int) float64 {
	if sharers < 1 {
		sharers = 1
	}
	return h.missRate(a, sharers)
}

func (h Hierarchy) missRate(a Access, sharers int) float64 {
	if a.WorkingSet <= 0 {
		return 0
	}
	capacity := h.LLC / int64(sharers)
	if capacity <= 0 {
		capacity = 1
	}
	// Fraction of the working set that cannot stay resident.
	overflow := capacityOverflow(a.WorkingSet, capacity)
	// Fraction of references that begin a new cache line.
	newLine := 1.0
	if a.Stride > 0 && a.Stride < h.LineSize {
		newLine = float64(a.Stride) / float64(h.LineSize)
	}
	// Temporal reuse amortizes line fetches over more references.
	amort := 1.0 + math.Max(0, a.Reuse)
	miss := overflow * newLine / amort
	// Cold misses put a small floor under everything that touches memory.
	const coldFloor = 0.002
	if miss < coldFloor {
		miss = coldFloor
	}
	if miss > 1 {
		miss = 1
	}
	return miss
}

// capacityOverflow maps workingSet/capacity to the fraction of references
// falling on non-resident data, with a smooth knee at capacity: well
// inside cache → ~0, far outside → ~1.
func capacityOverflow(ws, cap int64) float64 {
	r := float64(ws) / float64(cap)
	if r <= 1 {
		// Gentle rise to 5% misses as the working set approaches
		// capacity (conflict misses).
		return 0.05 * r * r
	}
	// Beyond capacity an LRU-like model: fraction of the working set
	// that was evicted before re-reference is 1 - cap/ws. The conflict
	// misses reached at capacity stay as a floor, so the curve never
	// drops just past the knee (1 - 1/r only overtakes 0.05 at
	// r = 1/0.95).
	return math.Max(0.05, 1-1/r)
}

// Report mirrors a cachegrind-style summary for a simulated workload.
type Report struct {
	Refs     float64 // total references
	Misses   float64 // estimated misses
	MissRate float64
}

// Profile produces a Report for a workload issuing refs references with
// access pattern a on hierarchy h (solo occupancy).
func (h Hierarchy) Profile(refs float64, a Access) Report {
	m := h.MissRate(a)
	return Report{Refs: refs, Misses: refs * m, MissRate: m}
}
