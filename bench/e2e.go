package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"smistudy/internal/durable"
	"smistudy/internal/obs"
	"smistudy/internal/report"
	"smistudy/internal/runner"
)

// childEnv carries a childReq from the parent to a child process of
// this binary. Each workload's end-to-end run is a child of its own, so
// set-up time and peak memory belong to that workload alone.
const childEnv = "SMIBENCH_CHILD"

// setupSamples is how many extra children only set up; half run before
// the measured child and half after. Set-up is a few milliseconds of
// one thread, and on the 2-vCPU host the numbers were taken on one vCPU
// often runs half as fast as the other for minutes at a time, so a
// child's set-up time depends on where it lands. setup_s is the fastest
// of these and the measured child's set-up: the set-up cost without that
// interference, which repeats from run to run where a median does not
// (README.md has the numbers).
const setupSamples = 20

// checkTol is the relative tolerance of the attribution invariants,
// smireport's default.
const checkTol = 0.01

type childReq struct {
	// Mode is "setup" (stop where the first cell would start) or "e2e".
	Mode     string  `json:"mode"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	// SimSeed, when not zero, keeps only the cells whose spec seed it
	// is: the smoke test runs one seed slice.
	SimSeed int64 `json:"sim_seed,omitempty"`
	// ExecNS is the parent's wall clock, in Unix nanoseconds, just
	// before it started the child.
	ExecNS int64 `json:"exec_ns"`
}

type childOut struct {
	SetupS     float64  `json:"setup_s"`
	Cells      int      `json:"cells"`
	Passes     int      `json:"passes"`
	WindowS    float64  `json:"window_s"`
	Mallocs    uint64   `json:"mallocs"`
	TotalAlloc uint64   `json:"total_alloc"`
	Failed     int      `json:"failed"`
	Failures   []string `json:"failures,omitempty"`
	// HostRef lists the host reference loop's durations in the window,
	// and RefS their sum, which WindowS includes.
	HostRef []float64 `json:"host_ref_s"`
	RefS    float64   `json:"ref_s"`
}

// e2e measures one workload end to end: the measured child, between
// two halves of the setupSamples children that only set up.
func e2e(req childReq) (result, error) {
	var setups []float64
	sample := func(n int) error {
		req := req
		req.Mode = "setup"
		for i := 0; i < n; i++ {
			out, _, err := spawn(req)
			if err != nil {
				return err
			}
			setups = append(setups, out.SetupS)
		}
		return nil
	}
	if err := sample(setupSamples / 2); err != nil {
		return result{}, err
	}
	req.Mode = "e2e"
	out, ru, err := spawn(req)
	if err != nil {
		return result{}, err
	}
	setups = append(setups, out.SetupS)
	if err := sample(setupSamples - setupSamples/2); err != nil {
		return result{}, err
	}
	cells := float64(out.Cells)
	simS := out.WindowS - out.RefS
	return result{
		attempted: out.Cells,
		failed:    out.Failed,
		failures:  out.Failures,
		metrics: map[string]float64{
			"cells_per_ref_s":   cells / simS * median(out.HostRef) / refNominal.Seconds(),
			"allocs_per_cell":   float64(out.Mallocs) / cells,
			"alloc_mb_per_cell": float64(out.TotalAlloc) / cells / 1e6,
			"peak_rss_mb":       float64(ru.Maxrss*1024-refBytes) / 1e6,
			"setup_s":           slices.Min(setups),
		},
		extra: map[string]any{
			"cells_per_s":     cells / simS,
			"window_s":        out.WindowS,
			"passes":          out.Passes,
			"setup_samples_s": setups,
			"host_ref_s":      out.HostRef,
		},
	}, nil
}

// spawn runs one child to completion and returns its report and its
// resource usage.
func spawn(req childReq) (childOut, syscall.Rusage, error) {
	var ru syscall.Rusage
	exe, err := os.Executable()
	if err != nil {
		return childOut{}, ru, err
	}
	req.ExecNS = time.Now().UnixNano()
	payload, err := json.Marshal(req)
	if err != nil {
		return childOut{}, ru, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(payload))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return childOut{}, ru, fmt.Errorf("%s child: %w", req.Mode, err)
	}
	var out childOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return childOut{}, ru, fmt.Errorf("%s child report: %w", req.Mode, err)
	}
	if p, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		ru = *p
	}
	return out, ru, nil
}

func childMain(payload string) int {
	var req childReq
	if err := json.Unmarshal([]byte(payload), &req); err != nil {
		fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
		return 2
	}
	out, err := child(req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", req.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		return 1
	}
	return 0
}

// child sets a workload up — load and expand its grids, validate and
// key every cell, read the digests, open the store — and, in e2e mode,
// measures it.
func child(req childReq) (childOut, error) {
	dir := benchDir()
	cells, err := loadCells(dir, req.Workload, req.SimSeed)
	if err != nil {
		return childOut{}, err
	}
	digests, err := loadDigests(dir, req.Workload)
	if err != nil {
		return childOut{}, err
	}
	var st *stores
	if req.Workload == tracedWorkload {
		if st, err = newStores(); err != nil {
			return childOut{}, err
		}
		defer st.remove()
	}
	if req.Mode == "setup" {
		return childOut{SetupS: sinceExec(req.ExecNS)}, nil
	}
	w, err := measure(cells, req.Seed, time.Duration(req.Seconds*float64(time.Second)), st, req.ExecNS)
	if err != nil {
		return childOut{}, err
	}
	out := childOut{
		SetupS: w.setupS, Cells: len(w.outcomes), Passes: w.passes, WindowS: w.wall.Seconds(),
		Mallocs: w.mallocs, TotalAlloc: w.totalAlloc, HostRef: w.ref.times, RefS: w.ref.total.Seconds(),
	}
	r := verify(w.outcomes, digests)
	out.Failed, out.Failures = r.failed, r.failures
	return out, nil
}

func sinceExec(execNS int64) float64 {
	return float64(time.Now().UnixNano()-execNS) / 1e9
}

// outcome is one cell execution inside the measured window.
type outcome struct {
	cell cell
	m    runner.Measurement
	err  error
	// Traced workload only: attribution invariants that failed on the
	// cell's trace, and the warm replay from the reopened store.
	traced     bool
	violations []report.Violation
	warm       runner.Measurement
	warmErr    error
	cached     bool
}

// window is one measured window: whole passes over the workload.
type window struct {
	setupS              float64
	outcomes            []outcome
	passes              int
	wall                time.Duration
	mallocs, totalAlloc uint64
	ref                 *hostRef
}

// measure runs whole passes over cells, each in an order drawn from
// seed, while another pass of the mean length still fits in budget;
// it always runs at least one. Results are kept and checked after the
// window, so checking costs neither time nor allocations inside it;
// the host reference loop runs between cells. With st set, cells run
// traced into a fresh store per pass (see tracedPass).
func measure(cells []cell, seed int64, budget time.Duration, st *stores, execNS int64) (window, error) {
	var w window
	if execNS != 0 {
		w.setupS = sinceExec(execNS)
	}
	rng := rand.New(rand.NewSource(seed))
	var err error
	if w.ref, err = newHostRef(); err != nil {
		return window{}, err
	}
	defer w.ref.close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for {
		order := rng.Perm(len(cells))
		if st == nil {
			w.outcomes = append(w.outcomes, plainPass(cells, order, w.ref)...)
		} else {
			outs, err := tracedPass(cells, order, st, w.ref)
			if err != nil {
				return window{}, err
			}
			w.outcomes = append(w.outcomes, outs...)
		}
		w.passes++
		el := time.Since(start)
		if el+el/time.Duration(w.passes) > budget {
			break
		}
	}
	if len(w.ref.times) == 0 {
		w.ref.run()
	}
	w.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	w.mallocs = after.Mallocs - before.Mallocs
	w.totalAlloc = after.TotalAlloc - before.TotalAlloc
	return w, nil
}

// plainPass runs each cell untraced through durable.RunSpec, the path
// smisim, smibench and smiserve share; ref, when not nil, ticks between
// cells.
func plainPass(cells []cell, order []int, ref *hostRef) []outcome {
	outs := make([]outcome, 0, len(order))
	for _, i := range order {
		m, _, err := durable.RunSpec(context.Background(), cells[i].spec, durable.Options{Workers: 1})
		outs = append(outs, outcome{cell: cells[i], m: m, err: err})
		ref.tick()
	}
	return outs
}

// tracedPass is smisim -trace -store followed by smireport -check, per
// cell: the cell runs cold into the pass's store with a bus feeding a
// Chrome trace into memory, and the trace is read back, attributed and
// checked. After the last cell the store is reopened and every cell
// replays from it with Resume.
func tracedPass(cells []cell, order []int, st *stores, ref *hostRef) ([]outcome, error) {
	ctx := context.Background()
	store, err := st.take()
	if err != nil {
		return nil, err
	}
	outs := make([]outcome, 0, len(order))
	var buf bytes.Buffer
	for _, i := range order {
		buf.Reset()
		bus := obs.NewBus()
		sink := obs.NewChromeSink(&buf)
		bus.Attach(sink)
		o := outcome{cell: cells[i], traced: true}
		o.m, _, o.err = durable.RunSpec(ctx, cells[i].spec, durable.Options{Workers: 1, Store: store, Tracer: bus})
		if o.err == nil {
			o.err = sink.Close()
		}
		if o.err == nil {
			var tr *obs.Trace
			if tr, o.err = obs.ReadTrace(bytes.NewReader(buf.Bytes())); o.err == nil {
				o.violations = checkTree(tr)
			}
		}
		outs = append(outs, o)
		ref.tick()
	}
	dir := store.Dir()
	if err := store.Close(); err != nil {
		return nil, err
	}
	if store, err = durable.Open(dir); err != nil {
		return nil, err
	}
	defer store.Close()
	for k := range outs {
		o := &outs[k]
		var s *durable.Stats
		o.warm, s, o.warmErr = durable.RunSpec(ctx, o.cell.spec, durable.Options{Workers: 1, Store: store, Resume: true})
		o.cached = s.Cached == 1
	}
	return outs, nil
}

// checkTree attributes a parsed trace and checks every run's tree, as
// smireport -check does.
func checkTree(tr *obs.Trace) []report.Violation {
	var vs []report.Violation
	if tr.Truncated {
		vs = append(vs, report.Violation{Path: "trace", Detail: "truncated"})
	}
	for _, ra := range report.Attribute(tr) {
		vs = append(vs, ra.Tree.Check(checkTol)...)
	}
	return vs
}

// verify checks every outcome: no error, the committed digest, no
// attribution violation, and a warm replay that was served from the
// store and is byte-identical to the cold run.
func verify(outs []outcome, digests map[string]string) result {
	r := result{attempted: len(outs)}
	for _, o := range outs {
		if msg := failure(o, digests); msg != "" {
			r.fail(fmt.Sprintf("%s seed %d (%s): %s", o.cell.spec.Name, o.cell.spec.Seed, o.cell.key[:12], msg))
		}
	}
	return r
}

func failure(o outcome, digests map[string]string) string {
	if o.err != nil {
		return o.err.Error()
	}
	got, err := digestOf(o.m)
	if err != nil {
		return err.Error()
	}
	want, ok := digests[o.cell.key]
	switch {
	case !ok:
		return "no committed digest (run -update-digests)"
	case got != want:
		return "result digest " + got[:12] + " != committed " + want[:12]
	case len(o.violations) > 0:
		return fmt.Sprintf("%d attribution violations, first: %s: %s", len(o.violations), o.violations[0].Path, o.violations[0].Detail)
	}
	if !o.traced {
		return ""
	}
	if o.warmErr != nil {
		return "warm replay: " + o.warmErr.Error()
	}
	if !o.cached {
		return "warm replay re-executed instead of replaying from the store"
	}
	if warm, err := digestOf(o.warm); err != nil || warm != got {
		return "warm replay differs from the cold run"
	}
	return ""
}

// stores hands out one fresh durable store per traced pass, under one
// temporary root. The first is opened during set-up.
type stores struct {
	root string
	n    int
	next *durable.Store
}

func newStores() (*stores, error) {
	root, err := os.MkdirTemp("", "smibench-store-")
	if err != nil {
		return nil, err
	}
	s := &stores{root: root}
	if s.next, err = s.open(); err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	return s, nil
}

func (s *stores) open() (*durable.Store, error) {
	s.n++
	return durable.Open(filepath.Join(s.root, fmt.Sprint(s.n)))
}

func (s *stores) take() (*durable.Store, error) {
	if st := s.next; st != nil {
		s.next = nil
		return st, nil
	}
	return s.open()
}

func (s *stores) remove() {
	if s.next != nil {
		s.next.Close()
	}
	os.RemoveAll(s.root)
}
