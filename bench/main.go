// Command bench is the repository's benchmark: it measures how many
// paper-grid cells the simulator finishes per host second, what each
// cell allocates, and what each layer of the simulator costs, and it
// checks every simulated result against a committed digest.
//
//	bash bench/run.sh --workload nas-mpi --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload nas-mpi --trace 1        # per-layer metrics
//	bash bench/run.sh -out runs.jsonl                      # all workloads, seeded order
//	bash bench/run.sh -compare a.jsonl b.jsonl             # verdicts against the bounds
//	bash bench/run.sh -update-digests                      # regenerate testdata/
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads, the metrics and how to read a comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
)

func main() {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloads := fs.String("workload", "", "comma-separated workloads to run (default: all, in an order drawn from -seed)")
	seed := fs.Int64("seed", 1, "seed for the order workloads and cells run in")
	seconds := fs.Float64("seconds", 20, "length of the measured window per workload")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass and probes")
	out := fs.String("out", "", "append one JSON run record per workload to this file")
	compare := fs.Bool("compare", false, "compare two run-record files given as arguments")
	update := fs.Bool("update-digests", false, "rewrite testdata/<workload>.sha256 from the current simulator")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dir := benchDir()
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two run-record files")
			return 2
		}
		return compareFiles(os.Stdout, dir, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: want --workload W --seed N --seconds S --trace 0|1")
		return 2
	}

	names := append([]string(nil), workloadNames...)
	rand.New(rand.NewSource(*seed)).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	}
	for _, n := range names {
		if !slices.Contains(workloadNames, n) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", n, strings.Join(workloadNames, ", "))
			return 2
		}
	}

	if *update {
		for _, n := range names {
			if err := updateDigests(dir, n); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "bench: wrote %s\n", digestPath(dir, n))
		}
		return 0
	}

	bf, err := readBenchFile(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for _, n := range names {
		var res result
		var err error
		if *trace == 0 {
			res, err = e2e(childReq{Workload: n, Seed: *seed, Seconds: *seconds})
		} else {
			res, err = layers(dir, n, *seed)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		for _, f := range res.failures {
			fmt.Fprintf(os.Stderr, "bench: %s: FAILED %s\n", n, f)
		}
		if *out != "" {
			if err := appendRecord(*out, newRecord(n, names, *seed, *seconds, *trace, res)); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
		line, err := res.line(bf.metrics(*trace))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		fmt.Println(string(line))
		if res.failed > 0 {
			code = 1
		}
	}
	return code
}

// result is one workload's outcome in either mode.
type result struct {
	attempted int
	failed    int
	failures  []string // one line per failed cell, capped
	metrics   map[string]float64
	// extra holds raw values behind the metrics (setup samples, window
	// length, passes) for the run record.
	extra map[string]any
}

// maxFailureLines caps how many failed cells are listed by name.
const maxFailureLines = 20

func (r *result) fail(msg string) {
	r.failed++
	if len(r.failures) < maxFailureLines {
		r.failures = append(r.failures, msg)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders the result as the benchmark's final JSON line, with the
// metrics BENCHMARK.json names for the mode.
func (r result) line(defs []metricDef) ([]byte, error) {
	ms := map[string]metricValue{}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		ms[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
}
