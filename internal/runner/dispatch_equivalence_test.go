package runner

import (
	"bytes"
	"path/filepath"
	"testing"

	"smistudy/internal/scenario"
)

// TestScenarioDispatchEquivalence is the dispatch-equivalence table of
// the fast-path contract: every example scenario, run under -fastpath
// off and auto, serializes byte-identically — auto mode either declines
// (and the simulation trivially matches) or serves with provably
// identical bytes. Scenarios whose runs fail (the faulted example) must
// fail identically in both modes.
func TestScenarioDispatchEquivalence(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			sp, err := scenario.Load(file)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			run := func(mode FastPathMode) ([]byte, string) {
				x := Exec{Workers: 1}
				if mode != FastOff {
					x.Dispatch = NewDispatcher(mode, 0)
				}
				m, err := RunWith(sp, x)
				errStr := ""
				if err != nil {
					errStr = err.Error()
				}
				data, jerr := m.JSON()
				if jerr != nil {
					t.Fatalf("%s: encode: %v", mode, jerr)
				}
				return data, errStr
			}
			want, wantErr := run(FastOff)
			got, gotErr := run(FastAuto)
			if gotErr != wantErr {
				t.Errorf("auto: error %q, want %q", gotErr, wantErr)
			}
			if !bytes.Equal(got, want) {
				t.Error("auto: measurement differs from the fast-path-off baseline")
			}
		})
	}
}
