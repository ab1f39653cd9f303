package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// Manifest is the self-describing record of one run: the command, every
// input flag at its effective value (defaults included), and the
// package/toolchain versions. Feeding a manifest back through a
// command's -replay flag reproduces the run; flags given explicitly on
// the replaying command line win over manifest values, so a replay can
// vary one axis while pinning the rest.
//
// Serialization is deterministic — Go marshals the flag map with sorted
// keys and the manifest carries no timestamps — so capture → JSON →
// Load → JSON is byte-identical, which CI asserts.
// ManifestSchema is the manifest document revision Capture stamps.
// Manifests without the field predate versioning and read as schema 1;
// LoadManifest accepts both (the backward-compat test pins that old
// documents still load and replay).
//
//	1  PR 3: command, flags, versions (+ durable block later)
//	2  PR 8: schema field itself, obs sink-loss stats, scenario echo
const ManifestSchema = 2

type Manifest struct {
	// Schema is the manifest document revision (see ManifestSchema).
	// Zero means a pre-versioning document — treat as 1.
	Schema    int               `json:"schema,omitempty"`
	Command   string            `json:"command"`
	Version   string            `json:"version"`    // obs package revision
	GoVersion string            `json:"go_version"` // toolchain that produced the run
	Flags     map[string]string `json:"flags"`
	// Scenario, when present, is the canonical encoding of the scenario
	// spec the run measured — the content-address identity the durable
	// store and the report pipeline key on. Raw so obs stays decoupled
	// from the scenario package.
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// Obs, when present, records the run's observability sink
	// accounting: how many trace records were written, whether the
	// trace writer errored, and ring retention. A report consumer uses
	// it to detect lossy traces before trusting attribution.
	Obs *SinkStats `json:"obs,omitempty"`
	// Durable, when present, records the durable sweep layer's execution
	// accounting for the run: attempts, retries, timeouts and store
	// cache activity. It is attached after the run finishes (or is
	// interrupted), so a manifest flushed mid-sweep documents exactly
	// how far the sweep got. Absent for non-durable runs, keeping legacy
	// manifests byte-identical.
	Durable *DurableStats `json:"durable,omitempty"`
	// Serve, when present, records a sweep server's lifetime accounting:
	// how many submissions it admitted and how their cells resolved
	// (executed vs cache replay vs single-flight coalescing). Attached
	// by cmd/smiserve at shutdown; absent for every other command,
	// keeping legacy manifests byte-identical.
	Serve *ServeStats `json:"serve,omitempty"`
}

// SinkStats records where the run's observability outputs could have
// lost data. A truncated or write-errored trace is not an error for the
// run itself — the measurement is unaffected — but any attribution
// computed from it is approximate, and the manifest is how that fact
// survives to the report.
type SinkStats struct {
	// TraceEvents counts records the Chrome sink wrote (metadata
	// included). A reader that parses fewer has a truncated file.
	TraceEvents int64 `json:"trace_events,omitempty"`
	// TraceError is the trace sink's first write error, if any.
	TraceError string `json:"trace_error,omitempty"`
	// Ring accounting, when an in-memory ring was attached: total
	// events emitted and how many fell off the ring.
	RingTotal   int64 `json:"ring_total,omitempty"`
	RingDropped int64 `json:"ring_dropped,omitempty"`
}

// Lossy reports whether any sink lost or may have lost events.
func (s *SinkStats) Lossy() bool {
	return s != nil && (s.TraceError != "" || s.RingDropped > 0)
}

// ServeStats is a sweep server's lifetime accounting, as recorded in
// its shutdown manifest. Cells = Executed + Cached + Coalesced + Failed
// once every admitted job has finished; the dedup story is
// (Cached + Coalesced) / Cells.
type ServeStats struct {
	// Submissions counts accepted POST /v1/sweeps requests; Rejected
	// counts 429 admission-control rejections.
	Submissions int64 `json:"submissions"`
	Rejected    int64 `json:"rejected,omitempty"`
	// Jobs counts jobs that finished clean; JobsFailed those with at
	// least one permanently-failed spec.
	Jobs       int64 `json:"jobs"`
	JobsFailed int64 `json:"jobs_failed,omitempty"`
	// Cells counts every cell across all submissions; Executed built an
	// engine, Cached replayed from the store, Coalesced shared another
	// submission's in-flight execution, Failed failed permanently.
	Cells     int64 `json:"cells"`
	Executed  int64 `json:"executed"`
	Cached    int64 `json:"cached"`
	Coalesced int64 `json:"coalesced"`
	Failed    int64 `json:"failed,omitempty"`
}

// DedupRate reports the fraction of cells served without a fresh
// execution (cache replays plus coalesced waiters), or 0 when idle.
func (s *ServeStats) DedupRate() float64 {
	if s == nil || s.Cells == 0 {
		return 0
	}
	return float64(s.Cached+s.Coalesced) / float64(s.Cells)
}

// DurableStats is the durable sweep layer's per-run accounting, as
// recorded in the run manifest: every attempt, retry, timeout and
// cache replay, plus how many cells failed permanently. Cells = Cached
// + Executed + Failed + Skipped.
type DurableStats struct {
	// Cells is the total number of durable execution units (content-
	// addressed (spec, run-index) cells) the sweep covered.
	Cells int64 `json:"cells"`
	// Cached cells were replayed byte-identically from the store with
	// zero simulation work.
	Cached int64 `json:"cached"`
	// Executed cells ran to a successful measurement this run.
	Executed int64 `json:"executed"`
	// Failed cells exhausted their attempts (or failed terminally).
	Failed int64 `json:"failed"`
	// Skipped cells were never attempted (cancellation mid-sweep).
	Skipped int64 `json:"skipped"`
	// Attempts counts every execution attempt, including retries.
	Attempts int64 `json:"attempts"`
	// Retries counts re-attempts after transient failures.
	Retries int64 `json:"retries"`
	// Timeouts counts attempts abandoned at the per-cell deadline.
	Timeouts int64 `json:"timeouts"`
	// Panics counts attempts that panicked and were isolated.
	Panics int64 `json:"panics"`
}

// Output flags that describe where a run writes, not what it computes;
// Capture drops them so a replayed run can choose its own outputs.
func isOutputFlag(name string, exclude []string) bool {
	for _, e := range exclude {
		if name == e {
			return true
		}
	}
	return false
}

// Capture records the command and every parsed flag value except the
// excluded (output) flags. Call after fs.Parse.
func Capture(command string, fs *flag.FlagSet, exclude ...string) Manifest {
	m := Manifest{
		Schema:    ManifestSchema,
		Command:   command,
		Version:   Version,
		GoVersion: runtime.Version(),
		Flags:     map[string]string{},
	}
	fs.VisitAll(func(f *flag.Flag) {
		if isOutputFlag(f.Name, exclude) {
			return
		}
		m.Flags[f.Name] = f.Value.String()
	})
	return m
}

// JSON serializes the manifest deterministically.
func (m Manifest) JSON() ([]byte, error) {
	return json.MarshalIndent(m, "", " ")
}

// LoadManifest parses a manifest document.
func LoadManifest(data []byte) (Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("manifest: %w", err)
	}
	if m.Flags == nil {
		m.Flags = map[string]string{}
	}
	return m, nil
}

// LoadManifestFile reads and parses a manifest from disk.
func LoadManifestFile(path string) (Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	return LoadManifest(data)
}

// Apply sets fs flags from the manifest, skipping flags the user set
// explicitly (the command line wins) and flag names fs does not define.
// Call after fs.Parse, with explicit built from fs.Visit.
func (m Manifest) Apply(fs *flag.FlagSet, explicit map[string]bool) error {
	names := make([]string, 0, len(m.Flags))
	for name := range m.Flags {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if explicit[name] || fs.Lookup(name) == nil {
			continue
		}
		if err := fs.Set(name, m.Flags[name]); err != nil {
			return fmt.Errorf("manifest: flag -%s=%q: %w", name, m.Flags[name], err)
		}
	}
	return nil
}

// ExplicitFlags reports which flags were set on the command line.
// Call after fs.Parse.
func ExplicitFlags(fs *flag.FlagSet) map[string]bool {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}
