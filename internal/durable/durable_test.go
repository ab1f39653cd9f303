package durable

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smistudy/internal/obs"
	"smistudy/internal/parsweep"
	"smistudy/internal/runner"
	"smistudy/internal/scenario"
)

// swapExecute installs a test execution seam, restoring the real one at
// cleanup. Tests using it must not run in parallel.
func swapExecute(t *testing.T, fn func(scenario.Spec, runner.Exec) (runner.Measurement, error)) {
	t.Helper()
	orig := execute
	execute = fn
	t.Cleanup(func() { execute = orig })
}

// swapSleep collapses retry backoff to zero wall time.
func swapSleep(t *testing.T) {
	t.Helper()
	orig := sleep
	sleep = func(ctx context.Context, d time.Duration) bool { return ctx.Err() == nil }
	t.Cleanup(func() { sleep = orig })
}

func nasSpec(runs int) scenario.Spec {
	return scenario.Spec{
		Workload: "nas",
		Machine:  scenario.Machine{Nodes: 1, RanksPerNode: 1},
		Runs:     runs,
		Seed:     11,
		Params:   scenario.Params{Bench: "EP", Class: "S"},
	}
}

func TestKeyStableAndSensitive(t *testing.T) {
	sp := nasSpec(3)
	k1, err := Key(sp)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := Key(sp)
	if k1 != k2 {
		t.Fatalf("Key not stable: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("Key = %q, want 64 hex chars", k1)
	}
	sp.Seed++
	k3, _ := Key(sp)
	if k3 == k1 {
		t.Fatal("Key insensitive to the spec's seed")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := strings.Repeat("ab", 32)
	if s.Has(key, 0) {
		t.Fatal("empty store claims a cell")
	}
	want := []byte("{\"workload\":\"nas\"}\n")
	if err := s.Put(key, 0, want); err != nil {
		t.Fatal(err)
	}
	if !s.Has(key, 0) {
		t.Fatal("Put not visible to Has")
	}
	if s.Has(key, 1) {
		t.Fatal("run index not part of the address")
	}
	got, err := s.Get(key, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, want %q", got, want)
	}
}

func TestStoreDetectsCorruptObject(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("cd", 32)
	if err := s.Put(key, 0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "objects", key[:2], fmt.Sprintf("%s-r0.json", key))
	if err := os.WriteFile(p, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key, 0); err == nil {
		t.Fatal("Get accepted bytes that fail the journaled checksum")
	}
	s.Close()
}

func TestJournalSurvivesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keyA, keyB := strings.Repeat("0a", 32), strings.Repeat("0b", 32)
	if err := s.Put(keyA, 0, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(keyA, 1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear the tail the way a kill mid-append would: truncate inside the
	// last line, then verify reopen keeps the complete entries, drops
	// the fragment, and appends cleanly on a fresh line.
	jp := filepath.Join(dir, "journal.jsonl")
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jp, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	if !s.Has(keyA, 0) {
		t.Fatal("complete entry lost in recovery")
	}
	if s.Has(keyA, 1) {
		t.Fatal("torn entry resurrected")
	}
	if err := s.Put(keyB, 0, []byte("c")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A second recovery sees the neutralized fragment as a skippable
	// line and every real entry intact.
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Has(keyA, 0) || !s.Has(keyB, 0) || s.Has(keyA, 1) {
		t.Fatal("second recovery mis-indexed the journal")
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("journal indexes %d cells, want 2", got)
	}
	s.Close()
}

func TestRunSpecColdMatchesDirect(t *testing.T) {
	sp := nasSpec(3)
	direct, err := runner.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := direct.JSON()

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, st, err := RunSpec(context.Background(), sp, Options{Store: s, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := m.JSON()
	if !bytes.Equal(got, want) {
		t.Errorf("durable run differs from direct run:\n%s\nvs\n%s", got, want)
	}
	if st.Executed != 3 || st.Cached != 0 || st.Cells != 3 {
		t.Errorf("stats = %+v, want 3 executed cells", *st)
	}
	if s.Len() != 3 {
		t.Errorf("store holds %d cells, want 3", s.Len())
	}
}

// TestTracedRunSpecCountsEngineEvents: the durable path scopes its
// tracer per cell, and the engine probe must still reach the bus under
// that scope, counting every event the cell's engines fired.
func TestTracedRunSpecCountsEngineEvents(t *testing.T) {
	bus := obs.NewBus()
	var stats runner.ExecStats
	if _, _, err := RunSpec(context.Background(), nasSpec(2), Options{Workers: 1, Tracer: bus, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	fired := bus.Registry().Counter("engine_events_fired", -1).Value()
	if fired == 0 || fired != stats.EventsValue() {
		t.Fatalf("engine_events_fired = %d, want the cells' %d engine events", fired, stats.EventsValue())
	}
}

func TestRunSpecWarmReplaysWithoutExecuting(t *testing.T) {
	sp := nasSpec(3)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := RunSpec(context.Background(), sp, Options{Store: s, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	want, _ := first.JSON()

	// Warm pass: the execute seam panics if any simulation is attempted.
	swapExecute(t, func(scenario.Spec, runner.Exec) (runner.Measurement, error) {
		t.Error("warm resume executed a simulation")
		return runner.Measurement{}, errors.New("executed")
	})
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var events atomic.Int64
	tr := obs.TracerFunc(func(ev obs.Event) {
		if ev.Type == obs.EvSweepCellCached {
			events.Add(1)
		}
	})
	m, st, err := RunSpec(context.Background(), sp, Options{Store: s, Resume: true, Workers: 2, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := m.JSON()
	if !bytes.Equal(got, want) {
		t.Errorf("warm replay differs:\n%s\nvs\n%s", got, want)
	}
	if st.Executed != 0 || st.Cached != 3 || st.Attempts != 0 {
		t.Errorf("stats = %+v, want pure cache replay", *st)
	}
	if events.Load() != 3 {
		t.Errorf("saw %d cell_cached events, want 3", events.Load())
	}
}

func TestRunSpecResumesPartialStore(t *testing.T) {
	sp := nasSpec(4)
	dir := t.TempDir()

	// First pass dies (transiently) on every cell after the first two.
	var calls atomic.Int64
	real := execute
	swapExecute(t, func(c scenario.Spec, x runner.Exec) (runner.Measurement, error) {
		if calls.Add(1) > 2 {
			return runner.Measurement{}, MarkTransient(errors.New("injected outage"))
		}
		return real(c, x)
	})
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := RunSpec(context.Background(), sp, Options{Store: s, Workers: 1})
	if err == nil {
		t.Fatal("expected the injected outage to fail the sweep")
	}
	if st.Executed != 2 || st.Failed != 2 {
		t.Fatalf("first pass stats = %+v, want 2 executed + 2 failed", *st)
	}
	s.Close()

	// Resume executes exactly the missing cells and matches a direct run.
	swapExecute(t, real)
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, st, err := RunSpec(context.Background(), sp, Options{Store: s, Resume: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached != 2 || st.Executed != 2 {
		t.Errorf("resume stats = %+v, want 2 cached + 2 executed", *st)
	}
	direct, err := runner.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := direct.JSON()
	got, _ := m.JSON()
	if !bytes.Equal(got, want) {
		t.Errorf("resumed run differs from direct run:\n%s\nvs\n%s", got, want)
	}
}

func TestRunSpecCorruptCellReExecutes(t *testing.T) {
	sp := nasSpec(2)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunSpec(context.Background(), sp, Options{Store: s, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	key, _ := Key(sp)
	p := filepath.Join(dir, "objects", key[:2], fmt.Sprintf("%s-r1.json", key))
	if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, st, err := RunSpec(context.Background(), sp, Options{Store: s, Resume: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached != 1 || st.Executed != 1 {
		t.Errorf("stats = %+v, want the corrupt cell re-executed", *st)
	}
	direct, _ := runner.Run(sp)
	want, _ := direct.JSON()
	got, _ := m.JSON()
	if !bytes.Equal(got, want) {
		t.Errorf("recovery from corrupt cell not byte-identical")
	}
}

func TestTransientRetrySucceeds(t *testing.T) {
	swapSleep(t)
	sp := nasSpec(1)
	var calls atomic.Int64
	real := execute
	swapExecute(t, func(c scenario.Spec, x runner.Exec) (runner.Measurement, error) {
		if calls.Add(1) <= 2 {
			return runner.Measurement{}, MarkTransient(errors.New("flaky fabric"))
		}
		return real(c, x)
	})
	var retries atomic.Int64
	tr := obs.TracerFunc(func(ev obs.Event) {
		if ev.Type == obs.EvSweepCellRetry {
			retries.Add(1)
		}
	})
	_, st, err := RunSpec(context.Background(), sp, Options{Retry: Policy{MaxRetries: 3}, Tracer: tr})
	if err != nil {
		t.Fatalf("retries should have recovered the cell: %v", err)
	}
	if st.Retries != 2 || st.Attempts != 3 || st.Executed != 1 {
		t.Errorf("stats = %+v, want 3 attempts / 2 retries", *st)
	}
	if retries.Load() != 2 {
		t.Errorf("saw %d cell_retry events, want 2", retries.Load())
	}
}

func TestTransientRetriesExhaust(t *testing.T) {
	swapSleep(t)
	sp := nasSpec(1)
	swapExecute(t, func(scenario.Spec, runner.Exec) (runner.Measurement, error) {
		return runner.Measurement{}, MarkTransient(errors.New("hard outage"))
	})
	_, st, err := RunSpec(context.Background(), sp, Options{Retry: Policy{MaxRetries: 2}})
	if err == nil {
		t.Fatal("exhausted retries must fail the cell")
	}
	var ce *parsweep.CellError
	if !errors.As(err, &ce) || ce.Index != 0 {
		t.Fatalf("err = %v, want a CellError for cell 0", err)
	}
	if st.Attempts != 3 || st.Retries != 2 || st.Failed != 1 {
		t.Errorf("stats = %+v, want 3 attempts then failure", *st)
	}
}

func TestNonTransientErrorNotRetried(t *testing.T) {
	swapSleep(t)
	sp := nasSpec(1)
	swapExecute(t, func(scenario.Spec, runner.Exec) (runner.Measurement, error) {
		return runner.Measurement{}, errors.New("deterministic bug")
	})
	_, st, err := RunSpec(context.Background(), sp, Options{Retry: Policy{MaxRetries: 5}})
	if err == nil {
		t.Fatal("expected failure")
	}
	if st.Attempts != 1 || st.Retries != 0 {
		t.Errorf("stats = %+v, want exactly one attempt", *st)
	}
}

func TestCellTimeoutIsTerminal(t *testing.T) {
	sp := nasSpec(1)
	swapExecute(t, func(scenario.Spec, runner.Exec) (runner.Measurement, error) {
		time.Sleep(2 * time.Second)
		return runner.Measurement{}, nil
	})
	start := time.Now()
	_, st, err := RunSpec(context.Background(), sp, Options{CellTimeout: 20 * time.Millisecond, Retry: Policy{MaxRetries: 5}})
	if !errors.Is(err, ErrCellTimeout) {
		t.Fatalf("err = %v, want ErrCellTimeout", err)
	}
	if st.Timeouts != 1 || st.Attempts != 1 {
		t.Errorf("stats = %+v, want one timed-out attempt (timeouts are not retried)", *st)
	}
	if time.Since(start) > time.Second {
		t.Error("timeout did not abandon the cell promptly")
	}
}

func TestPanicIsolatedPerCell(t *testing.T) {
	sp := nasSpec(2)
	real := execute
	swapExecute(t, func(c scenario.Spec, x runner.Exec) (runner.Measurement, error) {
		if c.Seed == 12 { // second repetition cell
			panic("cell exploded")
		}
		return real(c, x)
	})
	ms, errs, st := RunSpecs(context.Background(), []scenario.Spec{sp, nasSpec(1)}, Options{Workers: 2, CellTimeout: time.Minute})
	if errs[0] == nil {
		t.Fatal("panicking cell must fail its spec")
	}
	var pe *parsweep.PanicError
	if !errors.As(errs[0], &pe) || pe.Value != "cell exploded" {
		t.Fatalf("errs[0] = %v, want the recovered panic", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("sibling spec infected by the panic: %v", errs[1])
	}
	if ms[1].NAS == nil {
		t.Fatal("sibling spec lost its measurement")
	}
	if st.Panics != 1 {
		t.Errorf("stats = %+v, want one isolated panic", *st)
	}
}

func TestFaultPartialMeasurementPassthrough(t *testing.T) {
	sp := nasSpec(1)
	partial := runner.Measurement{Workload: "nas", NAS: &runner.NASResult{Dropped: 7}}
	swapExecute(t, func(scenario.Spec, runner.Exec) (runner.Measurement, error) {
		return partial, errors.New("job failed under faults")
	})
	m, _, err := RunSpec(context.Background(), sp, Options{})
	if err == nil {
		t.Fatal("expected the fault failure")
	}
	if m.NAS == nil || m.NAS.Dropped != 7 {
		t.Fatalf("partial measurement dropped: %+v", m)
	}
}

func TestCancellationMarksSkipped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sp := nasSpec(4)
	_, st, err := RunSpec(ctx, sp, Options{Workers: 1})
	if err == nil {
		t.Fatal("canceled sweep must report an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Skipped != 4 || st.Attempts != 0 {
		t.Errorf("stats = %+v, want every cell skipped", *st)
	}
}

func TestInvalidSpecRejectedBeforePlanning(t *testing.T) {
	ms, errs, st := RunSpecs(context.Background(), []scenario.Spec{
		{Workload: "no-such-workload"},
		nasSpec(1),
	}, Options{})
	if !errors.Is(errs[0], runner.ErrInvalidSpec) {
		t.Fatalf("errs[0] = %v, want ErrInvalidSpec", errs[0])
	}
	if errs[1] != nil || ms[1].NAS == nil {
		t.Fatalf("valid sibling spec affected: %v", errs[1])
	}
	if st.Cells != 1 {
		t.Errorf("stats count rejected specs as cells: %+v", *st)
	}
}

func TestFailedCellsAreNotCached(t *testing.T) {
	swapSleep(t)
	sp := nasSpec(2)
	dir := t.TempDir()
	real := execute
	swapExecute(t, func(c scenario.Spec, x runner.Exec) (runner.Measurement, error) {
		if c.Seed == 12 {
			return runner.Measurement{}, errors.New("deterministic failure")
		}
		return real(c, x)
	})
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunSpec(context.Background(), sp, Options{Store: s, Workers: 1}); err == nil {
		t.Fatal("expected failure")
	}
	if s.Len() != 1 {
		t.Fatalf("store holds %d cells, want only the successful one", s.Len())
	}
	s.Close()

	// The resumed sweep re-attempts exactly the failed cell.
	swapExecute(t, real)
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, st, err := RunSpec(context.Background(), sp, Options{Store: s, Resume: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached != 1 || st.Executed != 1 {
		t.Errorf("stats = %+v, want the failed cell (only) re-executed", *st)
	}
}
