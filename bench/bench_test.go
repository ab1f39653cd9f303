package main

import (
	"math"
	"os"
	"testing"
	"time"

	"smistudy/internal/runner"
)

// TestMain lets the test binary stand in for the benchmark's child
// processes, as the benchmark binary does for itself.
func TestMain(m *testing.M) {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req))
	}
	os.Exit(m.Run())
}

// pinnedCells is each workload's size: changing it changes what the
// benchmark measures, so it is a new baseline.
var pinnedCells = map[string]int{
	"nas-mpi":          312,
	"unixbench-kernel": 90,
	"convolve-noise":   108,
	"traced-report":    32,
}

func TestWorkloadsExpandToPinnedCells(t *testing.T) {
	for _, name := range workloadNames {
		cells, err := loadCells(".", name, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(cells) != pinnedCells[name] {
			t.Errorf("%s expands to %d cells, want %d", name, len(cells), pinnedCells[name])
		}
		digests, err := loadDigests(".", name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range cells {
			if err := runner.Validate(c.spec); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if _, ok := digests[c.key]; !ok {
				t.Errorf("%s: cell %s seed %d has no committed digest", name, c.spec.Name, c.spec.Seed)
			}
		}
	}
}

// TestSmokeEmitsEveryMetric runs the seed-1 slice of the traced
// workload through both modes and checks that each measures exactly the
// metrics BENCHMARK.json names for it, as finite numbers.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	bf, err := readBenchFile(".")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e2e(childReq{Workload: tracedWorkload, Seed: 1, Seconds: 1e-3, SimSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "e2e", res, bf.metrics(0))

	res, err = layers(".", tracedWorkload, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "layers", res, bf.metrics(1))
	if res.metrics["perturb.steals_per_cell"] == 0 || res.metrics["mpi.sends_per_cell"] == 0 {
		t.Errorf("traced counts missing: steals %v, sends %v per cell",
			res.metrics["perturb.steals_per_cell"], res.metrics["mpi.sends_per_cell"])
	}
}

func checkResult(t *testing.T, mode string, res result, defs []metricDef) {
	t.Helper()
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: %d of %d cells failed: %v", mode, res.failed, res.attempted, res.failures)
	}
	if _, err := res.line(defs); err != nil {
		t.Errorf("%s: %v", mode, err)
	}
	named := map[string]bool{}
	for _, d := range defs {
		named[d.Name] = true
	}
	for name, v := range res.metrics {
		if !named[name] {
			t.Errorf("%s: measures %s, which BENCHMARK.json does not name", mode, name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: %s = %v", mode, name, v)
		}
	}
}

// TestTamperedDigestFails checks that a result which no longer matches
// its committed digest fails its cell.
func TestTamperedDigestFails(t *testing.T) {
	all, err := loadCells(".", "nas-mpi", 1)
	if err != nil {
		t.Fatal(err)
	}
	var cells []cell
	for _, c := range all {
		if c.spec.Params.Bench == "EP" && c.spec.Machine.Nodes == 4 {
			cells = append(cells, c)
		}
	}
	digests, err := loadDigests(".", "nas-mpi")
	if err != nil {
		t.Fatal(err)
	}
	w, err := measure(cells, 1, time.Nanosecond, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r := verify(w.outcomes, digests); r.failed != 0 {
		t.Fatalf("untampered: %v", r.failures)
	}
	tampered := map[string]string{}
	for k, v := range digests {
		tampered[k] = v
	}
	tampered[cells[0].key] = "0000000000000000000000000000000000000000000000000000000000000000"
	r := verify(w.outcomes, tampered)
	if r.failed != 1 || r.attempted != len(cells) {
		t.Fatalf("tampered digest: %d of %d failed, want 1: %v", r.failed, r.attempted, r.failures)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name   string
		better string
		bound  float64
		a, b   []float64
		want   string
	}{
		{"within bound", "higher", 0.10, steady, []float64{96, 97, 95, 96, 96}, "same"},
		{"higher and higher is better", "higher", 0.10, steady, []float64{120, 121, 119, 120, 120}, "better"},
		{"lower and higher is better", "higher", 0.10, steady, []float64{85, 86, 84, 85, 85}, "worse"},
		{"lower and lower is better", "lower", 0.01, steady, []float64{97, 97, 97, 97, 97}, "better"},
		{"higher and lower is better", "lower", 0.01, steady, []float64{102, 102, 102, 102, 102}, "worse"},
		{"spread over bound", "higher", 0.05, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 115, 95, 100}, "unresolved"},
		{"spread over bound, every run better", "higher", 0.05, []float64{80, 100, 120, 90, 110}, []float64{130, 150, 170, 140, 160}, "better"},
		{"spread over bound, every run worse", "lower", 0.05, []float64{80, 100, 120, 90, 110}, []float64{130, 150, 170, 140, 160}, "worse"},
	} {
		if got := verdict(tc.better, tc.bound, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
