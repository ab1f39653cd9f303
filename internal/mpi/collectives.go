package mpi

import (
	"fmt"

	"smistudy/internal/kernel"
)

// Additional collectives beyond what the NAS skeletons strictly need,
// built with the standard MPICH algorithms so the runtime is usable for
// workloads past the paper's three benchmarks.

// Gather collects `bytes` from every rank onto root (binomial tree; an
// interior node forwards its subtree's accumulated payload).
func (r *Rank) Gather(t *kernel.Task, root, bytes int) {
	p := len(r.w.ranks)
	seq := r.collSeq
	r.collSeq++
	r.collBegin("gather")
	defer r.collEnd("gather")
	if p == 1 {
		return
	}
	tag := collTag(seq, 0)
	rel := (r.id - root + p) % p
	// Leaf-to-root: the reverse of a binomial broadcast. Every node
	// first collects from its children (the ranks that differ in bits
	// below its own lowest set bit), then forwards the accumulated
	// subtree payload to its parent.
	mask := 1
	for mask < p && rel&mask == 0 {
		src := rel | mask
		if src < p {
			r.Recv(t, (src+root)%p, tag)
		}
		mask <<= 1
	}
	if rel != 0 {
		dst := ((rel &^ mask) + root) % p
		r.Send(t, dst, tag, bytes*subtreeSize(rel, mask, p))
	}
}

// subtreeSize is the number of ranks in the binomial subtree rooted at
// relative rank rel, whose lowest set bit is `mask`.
func subtreeSize(rel, mask, p int) int {
	size := mask
	if rel+size > p {
		size = p - rel
	}
	return size
}

// Scatter distributes `bytes` per rank from root (binomial tree; interior
// nodes receive their whole subtree's payload and forward halves).
func (r *Rank) Scatter(t *kernel.Task, root, bytes int) {
	p := len(r.w.ranks)
	seq := r.collSeq
	r.collSeq++
	r.collBegin("scatter")
	defer r.collEnd("scatter")
	if p == 1 {
		return
	}
	tag := collTag(seq, 0)
	rel := (r.id - root + p) % p
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := ((rel &^ mask) + root) % p
			r.Recv(t, src, tag)
			break
		}
		mask <<= 1
	}
	if rel == 0 {
		mask = 1
		for mask < p {
			mask <<= 1
		}
	}
	mask >>= 1
	for mask > 0 {
		if rel&(mask-1) == 0 && rel+mask < p {
			dst := (rel + mask + root) % p
			r.Send(t, dst, tag, bytes*subtreeSize(rel+mask, mask, p))
		}
		mask >>= 1
	}
}

// Allgather makes every rank hold every rank's `bytes` (ring algorithm:
// p-1 steps, each passing one block to the right neighbor).
func (r *Rank) Allgather(t *kernel.Task, bytes int) {
	p := len(r.w.ranks)
	seq := r.collSeq
	r.collSeq++
	r.collBegin("allgather")
	defer r.collEnd("allgather")
	if p == 1 {
		return
	}
	right := (r.id + 1) % p
	left := (r.id - 1 + p) % p
	for step := 0; step < p-1; step++ {
		tag := collTag(seq, step)
		r.Sendrecv(t, right, tag, bytes, left, tag)
	}
}

// ReduceScatter combines a vector of p×bytes across all ranks and leaves
// each rank with its `bytes` share (pairwise-exchange algorithm for any
// p: p-1 steps of sendrecv + local combine).
func (r *Rank) ReduceScatter(t *kernel.Task, bytes int) {
	p := len(r.w.ranks)
	seq := r.collSeq
	r.collSeq++
	r.collBegin("reduce_scatter")
	defer r.collEnd("reduce_scatter")
	if p == 1 {
		return
	}
	for step := 1; step < p; step++ {
		tag := collTag(seq, step)
		dst := (r.id + step) % p
		src := (r.id - step + p) % p
		r.Sendrecv(t, dst, tag, bytes, src, tag)
		t.Compute(float64(bytes) * r.w.par.ReduceOpsPerByte)
	}
}

// Alltoallv exchanges per-destination byte counts (irregular all-to-all,
// as IS's key redistribution really is). sizes[d] is what this rank
// sends to rank d; every rank must pass a consistent matrix (SPMD).
func (r *Rank) Alltoallv(t *kernel.Task, sizes []int) {
	p := len(r.w.ranks)
	if len(sizes) != p {
		panic(fmt.Sprintf("mpi: Alltoallv sizes has %d entries for %d ranks", len(sizes), p))
	}
	seq := r.collSeq
	r.collSeq++
	r.collBegin("alltoallv")
	defer r.collEnd("alltoallv")
	if p == 1 {
		t.Compute(float64(sizes[0]) * r.w.par.PackOpsPerByte)
		return
	}
	tag := collTag(seq, 0)
	for step := 1; step < p; step++ {
		src := (r.id - step + p) % p
		r.reqs = append(r.reqs, r.Irecv(t, src, tag))
	}
	for step := 1; step < p; step++ {
		dst := (r.id + step) % p
		r.reqs = append(r.reqs, r.Isend(t, dst, tag, sizes[dst]))
	}
	r.waitReleaseAll(t)
}
