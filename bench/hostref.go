package main

import (
	"syscall"
	"time"
	"unsafe"
)

// The host reference is a fixed memory-bound loop: dependent random
// reads and writes over refBytes of memory mapped outside the Go heap,
// so the collector neither scans it nor paces the simulator's
// collections by it. It runs for about refNominal between cells, at
// most every refEvery, inside the measured window. On a shared host the
// simulator slows down with the memory system, and the loop's duration
// tracks that; cells_per_ref_s divides it out. The loop is the
// benchmark's own code, so a change to the simulator cannot move it.
const (
	refNominal = 10 * time.Millisecond
	refEvery   = 250 * time.Millisecond
	refIters   = 300000
	refPool    = 2 << 20 // int64 slots
	refIdx     = 1 << 20 // int32 slots
	refBytes   = refPool*8 + refIdx*4
)

type hostRef struct {
	mem   []byte
	pool  []int64
	idx   []int32
	last  time.Time
	times []float64 // seconds per run of the loop
	total time.Duration
}

// newHostRef maps the loop's memory and touches every page of it, so
// the whole buffer is resident from the start and adds exactly
// refBytes to the process's peak resident set.
func newHostRef() (*hostRef, error) {
	mem, err := syscall.Mmap(-1, 0, refBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	h := &hostRef{
		mem:  mem,
		pool: unsafe.Slice((*int64)(unsafe.Pointer(&mem[0])), refPool),
		idx:  unsafe.Slice((*int32)(unsafe.Pointer(&mem[refPool*8])), refIdx),
		last: time.Now(),
	}
	clear(h.pool)
	for i := range h.idx {
		h.idx[i] = int32(i)
	}
	return h, nil
}

func (h *hostRef) close() error { return syscall.Munmap(h.mem) }

// tick runs the loop when refEvery has passed since it last ran; a nil
// reference does nothing.
func (h *hostRef) tick() {
	if h != nil && time.Since(h.last) >= refEvery {
		h.run()
	}
}

func (h *hostRef) run() {
	t := time.Now()
	x := uint64(88172645463325252)
	var acc int64
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % refPool)
		acc += h.pool[j]
		h.pool[(j*31)%refPool] = acc
		k := h.idx[j%refIdx]
		h.idx[k] = int32(j % refIdx)
	}
	d := time.Since(t)
	h.times = append(h.times, d.Seconds())
	h.total += d
	h.last = time.Now()
}
