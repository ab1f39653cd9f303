package experiments

import (
	"strings"
	"testing"

	"smistudy/internal/runner"
)

func TestFaultStudyQuick(t *testing.T) {
	out, err := FaultStudy(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Loss sweep", "retransmits",
		"Single-node fault amplification", "degrade links into node 1", "SMI storm",
		"Crash timing", "watchdog",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestStudySweepsCountCells: the fault and amplification studies call
// the typed entry points directly rather than RunWith, so they count
// their own sweep points. Each point is one cell with one engine, and
// the bench harness gates cells/sec on these counts.
func TestStudySweepsCountCells(t *testing.T) {
	for _, sweep := range []struct {
		name string
		fn   func(Config) (string, error)
	}{
		{"fault_study", FaultStudy},
		{"amplification", AmplificationStudy},
	} {
		t.Run(sweep.name, func(t *testing.T) {
			cfg := quick()
			st := &runner.ExecStats{}
			cfg.Stats = st
			if _, err := sweep.fn(cfg); err != nil {
				t.Fatal(err)
			}
			if st.Cells <= 0 || st.Events <= 0 {
				t.Fatalf("cells = %d, events = %d; want both > 0", st.Cells, st.Events)
			}
			if st.Runs != st.Cells {
				t.Errorf("runs = %d, cells = %d; want one engine per sweep point", st.Runs, st.Cells)
			}
		})
	}
}
