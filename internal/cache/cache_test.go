package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMissRateFitsInCache(t *testing.T) {
	h := R410Node()
	a := Access{WorkingSet: 16 << 10, Stride: 8, Reuse: 4}
	m := h.MissRate(a)
	if m > 0.01 {
		t.Errorf("small working set should be cache friendly, miss = %v", m)
	}
}

func TestMissRateStreaming(t *testing.T) {
	h := R410Node()
	a := Access{WorkingSet: 64 << 20, Stride: 64, Reuse: 0}
	m := h.MissRate(a)
	if m < 0.5 {
		t.Errorf("streaming 64MiB should be cache hostile, miss = %v", m)
	}
}

func TestMissRateMonotonicInWorkingSet(t *testing.T) {
	h := R410Node()
	prev := 0.0
	for ws := int64(1 << 10); ws <= 1<<28; ws *= 2 {
		m := h.MissRate(Access{WorkingSet: ws, Stride: 64, Reuse: 0})
		if m < prev {
			t.Fatalf("miss rate decreased with working set at ws=%d: %v < %v", ws, m, prev)
		}
		prev = m
	}
}

func TestSharedMissRateNotLower(t *testing.T) {
	h := R410Node()
	notLower := func(a Access) bool {
		return h.SharedMissRate(a, 2) >= h.MissRate(a)-1e-12
	}
	// A working set just past LLC/2: shared occupancy sits right above
	// the capacity knee, where the overflow curve once dipped to ~0.
	knee := Access{WorkingSet: 1536<<10 + 1, Stride: 64}
	if !notLower(knee) {
		t.Errorf("shared miss rate %v below solo %v for %+v",
			h.SharedMissRate(knee, 2), h.MissRate(knee), knee)
	}
	prop := func(wsKB uint32, strideLog uint8, reuse10 uint8) bool {
		return notLower(Access{
			WorkingSet: int64(wsKB%100000)*1024 + 1,
			Stride:     1 << (strideLog % 8),
			Reuse:      float64(reuse10%50) / 10,
		})
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestMissRateBounds(t *testing.T) {
	h := WyeastNode()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		a := Access{
			WorkingSet: rng.Int63n(1 << 30),
			Stride:     rng.Int63n(256),
			Reuse:      rng.Float64() * 20,
		}
		m := h.MissRate(a)
		if m < 0 || m > 1 {
			t.Fatalf("miss rate out of [0,1]: %v for %+v", m, a)
		}
	}
}

func TestSmallStrideReducesMisses(t *testing.T) {
	h := R410Node()
	big := Access{WorkingSet: 32 << 20, Stride: 64, Reuse: 0}
	small := Access{WorkingSet: 32 << 20, Stride: 8, Reuse: 0}
	if h.MissRate(small) >= h.MissRate(big) {
		t.Error("unit stride should miss less than line stride")
	}
}

func TestReuseReducesMisses(t *testing.T) {
	h := R410Node()
	none := Access{WorkingSet: 32 << 20, Stride: 64, Reuse: 0}
	lots := Access{WorkingSet: 32 << 20, Stride: 64, Reuse: 9}
	if h.MissRate(lots) >= h.MissRate(none) {
		t.Error("temporal reuse should reduce miss rate")
	}
}

func TestZeroWorkingSet(t *testing.T) {
	h := R410Node()
	if m := h.MissRate(Access{}); m != 0 {
		t.Errorf("zero working set miss rate = %v, want 0", m)
	}
}

func TestSharersClamped(t *testing.T) {
	h := R410Node()
	a := Access{WorkingSet: 1 << 20, Stride: 64}
	if h.SharedMissRate(a, 0) != h.MissRate(a) {
		t.Error("sharers<1 should behave like solo")
	}
}

func TestProfileReport(t *testing.T) {
	h := R410Node()
	a := Access{WorkingSet: 64 << 20, Stride: 64}
	rep := h.Profile(20e6, a)
	if rep.Refs != 20e6 {
		t.Errorf("refs = %v", rep.Refs)
	}
	if rep.Misses != rep.Refs*rep.MissRate {
		t.Errorf("misses inconsistent with rate")
	}
}

// The paper's Convolve configurations: the cache-friendly config measured
// ~1% misses and the cache-unfriendly one ~70% (of ~20M references).
// These Access summaries are the ones internal/convolve derives; pin them
// here so the calibration cannot drift silently.
func TestConvolveCalibration(t *testing.T) {
	h := R410Node()
	cf := Access{WorkingSet: 40 << 10, Stride: 8, Reuse: 8}
	cu := Access{WorkingSet: 9 << 20, Stride: 64, Reuse: 0.25}
	mcf := h.MissRate(cf)
	mcu := h.MissRate(cu)
	if mcf > 0.02 {
		t.Errorf("CF miss rate = %v, want ≈0.01 or less", mcf)
	}
	if mcu < 0.5 || mcu > 0.85 {
		t.Errorf("CU miss rate = %v, want ≈0.7", mcu)
	}
}
