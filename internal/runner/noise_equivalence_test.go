package runner

import (
	"bytes"
	"path/filepath"
	"testing"

	"smistudy/internal/scenario"
)

// TestLegacySMMNoiseBlockEquivalence is the behavior-preservation table
// of the noise refactor: for every example scenario written with the
// legacy smm block, the twin spec that lowers the same plan into a
// noise-list smm entry must serialize byte-identically. This is what
// licenses migrating old scenarios to the noise syntax without
// re-baselining goldens.
func TestLegacySMMNoiseBlockEquivalence(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	tested := 0
	for _, file := range files {
		file := file
		sp, err := scenario.Load(file)
		if err != nil {
			t.Fatalf("%s: load: %v", file, err)
		}
		// Only legacy-block scenarios have a twin to compare against.
		if len(sp.Noise) > 0 || sp.SMM == (scenario.SMMPlan{}) {
			continue
		}
		tested++
		t.Run(filepath.Base(file), func(t *testing.T) {
			twin := sp
			twin.Noise = []scenario.NoiseSource{{
				Family:     scenario.NoiseSMM,
				Level:      sp.SMM.Level,
				IntervalMS: sp.SMM.IntervalMS,
				SMIScale:   sp.SMM.SMIScale,
			}}
			twin.SMM = scenario.SMMPlan{}
			if err := twin.Validate(); err != nil {
				t.Fatalf("twin spec invalid: %v", err)
			}
			run := func(s scenario.Spec) ([]byte, string) {
				m, err := RunWith(s, Exec{Workers: 1})
				errStr := ""
				if err != nil {
					errStr = err.Error()
				}
				data, jerr := m.JSON()
				if jerr != nil {
					t.Fatalf("encode: %v", jerr)
				}
				return data, errStr
			}
			legacyData, legacyErr := run(sp)
			noiseData, noiseErr := run(twin)
			if noiseErr != legacyErr {
				t.Errorf("noise twin error %q, legacy %q", noiseErr, legacyErr)
			}
			if !bytes.Equal(noiseData, legacyData) {
				t.Error("noise twin measurement differs from legacy block")
			}
		})
	}
	if tested == 0 {
		t.Fatal("no legacy-smm example scenarios found to test")
	}
}

// TestJitterDeterminismAndEffect: a jittered scenario replays
// byte-identically (seeded per-CPU schedules), and the steals visibly
// slow the workload relative to the quiet twin.
func TestJitterDeterminismAndEffect(t *testing.T) {
	sp, err := scenario.Load(filepath.Join("..", "..", "examples", "scenarios", "jitter-bt-a.json"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	sp.Runs = 1

	run := func(s scenario.Spec) ([]byte, Measurement) {
		m, err := RunWith(s, Exec{Workers: 1})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		data, err := m.JSON()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return data, m
	}
	a, ma := run(sp)
	b, _ := run(sp)
	if !bytes.Equal(a, b) {
		t.Fatal("jittered scenario did not replay byte-identically")
	}

	quiet := sp
	quiet.Noise = nil
	_, mq := run(quiet)
	if ma.NAS == nil || mq.NAS == nil {
		t.Fatal("missing NAS sections")
	}
	if ma.NAS.Seconds() <= mq.NAS.Seconds() {
		t.Errorf("jitter did not slow the benchmark: %.6fs with vs %.6fs without",
			ma.NAS.Seconds(), mq.NAS.Seconds())
	}
}
