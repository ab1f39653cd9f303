package netsim

import "testing"

// TestDeliverAllocFree pins an internode delivery's steady state at zero
// allocations: in-flight records come from the fabric's free list with
// their arrival callback already built.
func TestDeliverAllocFree(t *testing.T) {
	e, f := fabric(t, 4)
	arrived := 0
	done := func() { arrived++ }
	round := func() {
		for i := 0; i < 4; i++ {
			f.Deliver(i, (i+1)%4, 64<<10, done)
			f.Deliver(i, (i+2)%4, 64<<10, done)
		}
		e.Run()
	}
	round()
	if got := testing.AllocsPerRun(200, round); got != 0 {
		t.Fatalf("a round of 8 internode deliveries allocates %.1f allocs/op, want 0", got)
	}
	if sent := f.Stats().Messages; sent == 0 || int64(arrived) != sent {
		t.Fatalf("%d of %d messages arrived", arrived, sent)
	}
}
