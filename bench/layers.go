package main

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"smistudy/internal/durable"
	"smistudy/internal/obs"
	"smistudy/internal/runner"
	"smistudy/internal/scenario"
)

// layers measures one workload's per-layer metrics in this process, on
// the workload's seed-1 slice: an untraced pass through durable.RunSpec
// (the end-to-end path), a traced pass, a cold-then-warm pass through a
// durable store, and the fixed-size probes in probes.go. Every result
// of every pass is checked against the committed digests.
//
// The traced pass calls runner.RunWith with the bus itself as tracer.
// The durable path wraps its tracer in obs.WithRun, so the engine probe
// is never installed there and engine_events_* read zero; passing the
// bus directly is what makes sim.cancel_ratio measurable.
func layers(dir, name string, seed int64) (result, error) {
	m := map[string]float64{}
	grids, err := loadGrids(dir, name)
	if err != nil {
		return result{}, err
	}
	var specs []scenario.Spec
	var expandMS []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if specs, err = expand(grids); err != nil {
			return result{}, err
		}
		expandMS = append(expandMS, msSince(t))
	}
	m["scenario.expand_ms"] = median(expandMS)
	t := time.Now()
	all, err := planCells(specs)
	if err != nil {
		return result{}, err
	}
	m["scenario.plan_us_per_cell"] = msSince(t) * 1e3 / float64(len(all))

	var slice []cell
	for _, c := range all {
		if c.spec.Seed == 1 {
			slice = append(slice, c)
		}
	}
	digests, err := loadDigests(dir, name)
	if err != nil {
		return result{}, err
	}
	order := rand.New(rand.NewSource(seed)).Perm(len(slice))
	n := float64(len(slice))
	var outs []outcome

	// Untraced pass.
	var stats runner.ExecStats
	gc0 := readGC()
	var cellMS []float64
	start := time.Now()
	for _, i := range order {
		t := time.Now()
		meas, _, err := durable.RunSpec(context.Background(), slice[i].spec, durable.Options{Workers: 1, Stats: &stats})
		cellMS = append(cellMS, msSince(t))
		outs = append(outs, outcome{cell: slice[i], m: meas, err: err})
	}
	untraced := time.Since(start)
	gc1 := readGC()
	events := float64(stats.EventsValue())
	m["sim.events_per_cell"] = events / n
	m["sim.host_ns_per_event"] = float64(untraced.Nanoseconds()) / max(events, 1)
	m["runner.cell_ms_p50"] = percentile(cellMS, 0.5)
	m["runner.cell_ms_p90"] = percentile(cellMS, 0.9)
	m["runtime.gc_cycles_per_cell"] = (gc1.cycles - gc0.cycles) / n
	m["runtime.gc_cpu_frac"] = (gc1.gcCPU - gc0.gcCPU) / max(gc1.totalCPU-gc0.totalCPU, 1e-9)

	// Traced pass.
	counts := &eventCounter{}
	var traced time.Duration
	var scheduled, cancelled, traceBytes int64
	var readMS, attrMS float64
	// Attribution violations are reported, not failed: at the parent
	// commit smireport -check already flags unmatched preempt edges on
	// convolve traces, so failing them would hide every other result.
	violations := 0
	var buf bytes.Buffer
	for _, i := range order {
		buf.Reset()
		bus := obs.NewBus()
		sink := obs.NewChromeSink(&buf)
		bus.Attach(counts).Attach(sink)
		t := time.Now()
		o := outcome{cell: slice[i]}
		o.m, o.err = runner.RunWith(slice[i].spec, runner.Exec{Workers: 1, Tracer: bus})
		if o.err == nil {
			o.err = sink.Close()
		}
		traced += time.Since(t)
		reg := bus.Registry()
		scheduled += reg.Counter("engine_events_scheduled", -1).Value()
		cancelled += reg.Counter("engine_events_cancelled", -1).Value()
		traceBytes += int64(buf.Len())
		if o.err == nil {
			var tr *obs.Trace
			t = time.Now()
			tr, o.err = obs.ReadTrace(bytes.NewReader(buf.Bytes()))
			readMS += msSince(t)
			if o.err == nil {
				t = time.Now()
				violations += len(checkTree(tr))
				attrMS += msSince(t)
			}
		}
		outs = append(outs, o)
	}
	m["sim.cancel_ratio"] = float64(cancelled) / max(float64(scheduled), 1)
	m["kernel.tasks_per_cell"] = counts.per(obs.EvTaskSpawn, n)
	m["kernel.sched_runs_per_cell"] = counts.per(obs.EvSchedRun, n)
	m["kernel.migrations_per_cell"] = counts.per(obs.EvSchedMigrate, n)
	m["mpi.sends_per_cell"] = counts.per(obs.EvMPISend, n)
	m["mpi.bytes_per_cell"] = float64(counts.sendBytes) / n
	m["mpi.collectives_per_cell"] = counts.per(obs.EvCollEnd, n)
	m["netsim.delivered_per_cell"] = counts.per(obs.EvNetDeliver, n)
	m["smm.episodes_per_cell"] = counts.per(obs.EvSMMExit, n)
	m["perturb.steals_per_cell"] = counts.per(obs.EvStealExit, n)
	m["obs.events_per_cell"] = float64(counts.total) / n
	m["obs.trace_bytes_per_cell"] = float64(traceBytes) / n
	m["obs.trace_overhead_pct"] = (traced.Seconds()/untraced.Seconds() - 1) * 100
	m["report.read_ms_per_cell"] = readMS / n
	m["report.attribute_ms_per_cell"] = attrMS / n

	// Durable pass: cold into a fresh store, reopen, warm replay.
	root, err := os.MkdirTemp("", "smibench-layers-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)
	if err := durablePass(root, slice, order, m, &outs); err != nil {
		return result{}, err
	}

	if err := probes(root, m); err != nil {
		return result{}, err
	}
	r := verify(outs, digests)
	r.metrics = m
	r.extra = map[string]any{"slice_cells": len(slice), "attribution_violations": violations}
	return r, nil
}

// durablePass runs the slice cold into a store under root, times the
// store's reopen, then replays every cell with Resume.
func durablePass(root string, slice []cell, order []int, m map[string]float64, outs *[]outcome) error {
	ctx := context.Background()
	dir := filepath.Join(root, "store")
	st, err := durable.Open(dir)
	if err != nil {
		return err
	}
	cold := map[string]runner.Measurement{}
	for _, i := range order {
		meas, _, err := durable.RunSpec(ctx, slice[i].spec, durable.Options{Workers: 1, Store: st})
		*outs = append(*outs, outcome{cell: slice[i], m: meas, err: err})
		cold[slice[i].key] = meas
	}
	if err := st.Close(); err != nil {
		return err
	}
	t := time.Now()
	if st, err = durable.Open(dir); err != nil {
		return err
	}
	m["durable.open_ms"] = msSince(t)
	defer st.Close()
	var cached int64
	t = time.Now()
	warm := make([]outcome, 0, len(order))
	for _, i := range order {
		o := outcome{cell: slice[i], m: cold[slice[i].key], traced: true}
		var s *durable.Stats
		o.warm, s, o.warmErr = durable.RunSpec(ctx, slice[i].spec, durable.Options{Workers: 1, Store: st, Resume: true})
		o.cached = s.Cached == 1
		cached += s.Cached
		warm = append(warm, o)
	}
	n := float64(len(order))
	m["durable.warm_cell_us"] = msSince(t) * 1e3 / n
	m["durable.replay_ratio"] = float64(cached) / n
	*outs = append(*outs, warm...)
	return nil
}

// eventCounter is a trace sink counting events by type; the bus
// serializes Emit, so it needs no lock.
type eventCounter struct {
	n         [256]int64
	total     int64
	sendBytes int64
}

func (c *eventCounter) Emit(ev obs.Event) {
	c.n[ev.Type]++
	c.total++
	if ev.Type == obs.EvMPISend {
		c.sendBytes += ev.B
	}
}

func (c *eventCounter) per(t obs.Type, cells float64) float64 { return float64(c.n[t]) / cells }

type gcSample struct{ cycles, gcCPU, totalCPU float64 }

// readGC samples the runtime's GC cycle count and CPU accounting.
func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSample{
		cycles:   float64(s[0].Value.Uint64()),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// percentile is the nearest-rank percentile of xs, 0 < p ≤ 1.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(p*float64(len(s))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}
