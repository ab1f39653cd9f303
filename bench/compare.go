package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"text/tabwriter"
	"time"
)

// record is one workload run, as appended to the -out file: one JSON
// object per line, so a set of runs is one file.
type record struct {
	Time       string             `json:"time"`
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Order      []string           `json:"order"` // workloads in the order this invocation ran them
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      int                `json:"trace"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
	Raw        map[string]any     `json:"raw,omitempty"`
}

func newRecord(workload string, order []string, seed int64, seconds float64, trace int, r result) record {
	return record{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: commit(),
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Order: order, Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics, Raw: r.extra,
	}
}

// commit is the VCS revision the binary was built from, when the build
// had one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// metricDef is one metric as BENCHMARK.json declares it. The file is
// the only list of metric names, units, directions and bounds: the
// result line prints the metrics it names, and -compare judges them by
// its bounds. Per-layer metrics have no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchFile is the part of BENCHMARK.json this program reads.
type benchFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchFile(dir string) (benchFile, error) {
	var bf benchFile
	data, err := os.ReadFile(filepath.Join(dir, "..", "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	err = json.Unmarshal(data, &bf)
	return bf, err
}

// metrics lists the metrics a mode reports: end to end for --trace 0,
// per layer for --trace 1.
func (bf benchFile) metrics(trace int) []metricDef {
	if trace == 1 {
		return bf.PerLayer
	}
	return bf.EndToEnd
}

// compareFiles prints, for every workload and end-to-end metric, both
// sets' medians and quartiles and a verdict against the metric's bound.
// It exits 1 when any verdict is "worse".
func compareFiles(w io.Writer, dir, pathA, pathB string) int {
	bf, err := readBenchFile(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tchange\tspread\tbound\tverdict")
	code := 0
	for _, wl := range workloadNames {
		ra, rb := e2eRecords(a, wl), e2eRecords(b, wl)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range bf.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(m.Better, m.Bound, va, vb)
			if v == "worse" {
				code = 1
			}
			qa, qb := quartiles(va), quartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\n", wl, m.Name,
				fmtQ(qa, len(va)), fmtQ(qb, len(vb)), (qb[1]/qa[1]-1)*100, spread(qa, qb)*100, m.Bound*100, v)
		}
		fa, fb := failedCells(ra), failedCells(rb)
		v := "same"
		switch {
		case fb > fa:
			v, code = "worse", 1
		case fb < fa:
			v = "better"
		}
		fmt.Fprintf(tw, "%s\tfailed cells\t%d\t%d\t\t\t\t%s\n", wl, fa, fb, v)
	}
	if err := tw.Flush(); err != nil {
		return 2
	}
	return code
}

func e2eRecords(recs []record, workload string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == workload && r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out
}

func values(recs []record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

func failedCells(recs []record) int {
	n := 0
	for _, r := range recs {
		n += r.Failed
	}
	return n
}

func fmtQ(q [3]float64, n int) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", q[1], q[0], q[2], n)
}

// spread is the wider of the two sets' quartile distance, as a share of
// its median.
func spread(qa, qb [3]float64) float64 {
	return math.Max((qa[2]-qa[0])/math.Abs(qa[1]), (qb[2]-qb[0])/math.Abs(qb[1]))
}

// verdict compares set b against set a for a metric whose better
// direction is "higher" or "lower". The change is b's median against
// a's, as a share of a's median. When either set's spread exceeds the
// bound the metric is "unresolved", unless every run of b beats (or
// loses to) every run of a by more than the bound; otherwise a change
// beyond the bound is "better" or "worse", and anything within it
// "same".
func verdict(better string, bound float64, a, b []float64) string {
	qa, qb := quartiles(a), quartiles(b)
	gain := qb[1]/qa[1] - 1
	if better == "lower" {
		gain = -gain
	}
	if spread(qa, qb) > bound {
		minA, maxA := minMax(a)
		minB, maxB := minMax(b)
		if better == "lower" {
			minA, maxA, minB, maxB = -maxA, -minA, -maxB, -minB
		}
		switch {
		case minB > maxA && gain > bound:
			return "better"
		case maxB < minA && gain < -bound:
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case gain > bound:
		return "better"
	case gain < -bound:
		return "worse"
	}
	return "same"
}

func minMax(xs []float64) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// quartiles returns the first quartile, median and third quartile of
// xs by the exclusive method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func median(xs []float64) float64 { return quartiles(xs)[1] }
