package runner

import "sync/atomic"

// ExecStats aggregates execution accounting across every cell an
// invocation runs: how many cells were run, how many discrete
// simulations actually executed and how many engine events fired. Like
// Exec itself the stats are execution-only — they never enter a
// Measurement, so stored results stay a pure function of the measured
// cell. All fields are updated with atomic adds; one ExecStats may be
// shared by any number of concurrent workers.
type ExecStats struct {
	// Cells counts cells run: one per RunWith invocation, plus each
	// sweep point a study records with AddCell.
	Cells int64
	// Runs counts simulated repetitions that actually built an engine.
	Runs int64
	// Events counts engine events fired across all simulated runs.
	Events int64
}

// AddRun records one executed simulation repetition and its engine's
// event count.
func (s *ExecStats) AddRun(events uint64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.Runs, 1)
	atomic.AddInt64(&s.Events, int64(events))
}

// AddCell records one cell. Sweeps that call the typed entry points
// directly, bypassing RunWith, count their own points with it.
func (s *ExecStats) AddCell() {
	if s != nil {
		atomic.AddInt64(&s.Cells, 1)
	}
}

// CellsValue returns the current cell count (atomically).
func (s *ExecStats) CellsValue() int64 { return atomic.LoadInt64(&s.Cells) }

// EventsValue returns the current event count (atomically).
func (s *ExecStats) EventsValue() int64 { return atomic.LoadInt64(&s.Events) }

// RunsValue returns the current executed-repetition count (atomically).
func (s *ExecStats) RunsValue() int64 { return atomic.LoadInt64(&s.Runs) }
