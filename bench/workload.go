package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"smistudy/internal/durable"
	"smistudy/internal/runner"
	"smistudy/internal/scenario"
)

// workloadNames lists the workloads, one grid file each under
// workloads/. Why each exists is in README.md.
var workloadNames = []string{"nas-mpi", "unixbench-kernel", "convolve-noise", "traced-report"}

// tracedWorkload is the workload whose cells run traced into a durable
// store and feed the report pipeline.
const tracedWorkload = "traced-report"

// cell is one grid point of a workload.
type cell struct {
	spec scenario.Spec
	key  string // durable content address of spec
}

// benchDir locates the benchmark's own directory: the benchmark runs
// from the root of the repository, its tests from the directory itself.
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "workloads")); err == nil {
		return "bench"
	}
	return "."
}

// loadGrids reads a workload file strictly: a typo'd field fails
// instead of silently meaning a default.
func loadGrids(dir, name string) ([]scenario.Grid, error) {
	data, err := os.ReadFile(filepath.Join(dir, "workloads", name+".json"))
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var grids []scenario.Grid
	if err := dec.Decode(&grids); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return grids, nil
}

// expand lists every spec of the grids, in file order.
func expand(grids []scenario.Grid) ([]scenario.Spec, error) {
	var specs []scenario.Spec
	for _, g := range grids {
		s, err := g.Expand()
		if err != nil {
			return nil, err
		}
		specs = append(specs, s...)
	}
	return specs, nil
}

// planCells validates and keys every spec the way the durable path
// does. Each spec must be a single cell, so that one durable.RunSpec
// call is one simulation.
func planCells(specs []scenario.Spec) ([]cell, error) {
	cells := make([]cell, len(specs))
	for i, sp := range specs {
		p, err := durable.PlanSpec(sp, nil)
		if err != nil {
			return nil, err
		}
		if len(p.Cells) != 1 {
			return nil, fmt.Errorf("spec %d (%s) splits into %d cells; workloads use runs: 1", i, sp.Name, len(p.Cells))
		}
		cells[i] = cell{spec: sp, key: p.Key}
	}
	return cells, nil
}

// loadCells loads, expands and plans a workload, keeping only the cells
// whose spec seed is simSeed when simSeed is not zero.
func loadCells(dir, name string, simSeed int64) ([]cell, error) {
	grids, err := loadGrids(dir, name)
	if err != nil {
		return nil, err
	}
	specs, err := expand(grids)
	if err != nil {
		return nil, err
	}
	if simSeed != 0 {
		kept := specs[:0]
		for _, sp := range specs {
			if sp.Seed == simSeed {
				kept = append(kept, sp)
			}
		}
		specs = kept
	}
	return planCells(specs)
}

func digestPath(dir, name string) string {
	return filepath.Join(dir, "testdata", name+".sha256")
}

// digestOf is the SHA-256 of a measurement's canonical JSON.
func digestOf(m runner.Measurement) (string, error) {
	data, err := m.JSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// loadDigests reads a digest file: one "<digest> <cell key>" line per
// cell.
func loadDigests(dir, name string) (map[string]string, error) {
	f, err := os.Open(digestPath(dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s: malformed line %q", digestPath(dir, name), sc.Text())
		}
		out[fields[1]] = fields[0]
	}
	return out, sc.Err()
}

// updateDigests runs every cell of a workload once, untraced, and
// writes its digest file.
func updateDigests(dir, name string) error {
	cells, err := loadCells(dir, name, 0)
	if err != nil {
		return err
	}
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	var b strings.Builder
	for _, o := range plainPass(cells, order, nil) {
		if o.err != nil {
			return fmt.Errorf("%s seed %d: %w", o.cell.spec.Name, o.cell.spec.Seed, o.err)
		}
		d, err := digestOf(o.m)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s %s\n", d, o.cell.key)
	}
	return os.WriteFile(digestPath(dir, name), []byte(b.String()), 0o644)
}
