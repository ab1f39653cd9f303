package durable

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"smistudy/internal/obs"
	"smistudy/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// epSpec is the golden cell: a 2-run, 2-node EP.S sweep.
func epSpec() scenario.Spec {
	return scenario.Spec{
		Workload: "nas",
		Machine:  scenario.Machine{Nodes: 2, RanksPerNode: 1},
		SMM:      scenario.SMMPlan{Level: "none"},
		Runs:     2, Seed: 7,
		Params: scenario.Params{Bench: "EP", Class: "S"},
	}
}

// TestTracedEPGolden pins the trace byte stream of a traced EP cell
// against a checked-in golden file. The ChromeSink's pid/tid layout for
// a 2-run, 2-node cell — the coordinates smireport decodes with
// SplitPid/TrackOf — is a compatibility surface; any change must be a
// conscious golden update, not an accident.
//
// Regenerate with: go test ./internal/durable -run TracedEPGolden -update
func TestTracedEPGolden(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewChromeSink(&buf)
	if _, _, err := RunSpec(context.Background(), epSpec(), Options{Workers: 1, Tracer: sink}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	goldenPath := filepath.Join("testdata", "ep.trace.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("trace diverged from golden %s: sink layout or event emission changed (run with -update if intentional); got %d bytes, want %d",
			goldenPath, len(got), len(golden))
	}

	// The golden must decode through the exported reader with the
	// expected coordinates: 2 runs × (cluster + 2 nodes).
	tr, err := obs.ReadTrace(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("golden does not parse: %v", err)
	}
	if got := tr.RunIDs(); len(got) != 2 {
		t.Fatalf("golden runs = %v, want 2", got)
	}
	for _, run := range tr.RunIDs() {
		for node := int32(0); node < 2; node++ {
			if tr.ProcNames[obs.PidFor(run, node)] == "" {
				t.Errorf("run %d node %d has no process metadata at pid %d",
					run, node, obs.PidFor(run, node))
			}
		}
		if len(tr.Select(run, obs.TrackCells)) == 0 {
			t.Errorf("run %d has no sweep-cell track", run)
		}
		if len(tr.Select(run, obs.TrackCPU)) == 0 {
			t.Errorf("run %d has no CPU scheduling track", run)
		}
	}
}
