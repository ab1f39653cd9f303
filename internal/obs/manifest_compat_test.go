package obs

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// oldManifest is a verbatim schema-1 document from before the schema
// field, sink stats and scenario echo existed. Documents like this are
// on disk in users' run archives; they must keep loading and replaying.
const oldManifest = `{
 "command": "smisim",
 "version": "0.2.0",
 "go_version": "go1.24.0",
 "flags": {
  "bench": "EP",
  "class": "A",
  "nodes": "4",
  "runs": "3",
  "seed": "17",
  "smm": "2",
  "workload": "nas"
 }
}`

// fastPathManifest is a schema-2 document written while the simulator
// still had an analytic fast path: it carries a -fastpath flag no
// current command defines and a "fastpath" stats block the Manifest
// type no longer models.
const fastPathManifest = `{
 "schema": 2,
 "command": "smisim",
 "version": "0.2.0",
 "go_version": "go1.24.0",
 "flags": {
  "bench": "EP",
  "class": "A",
  "fastpath": "auto",
  "nodes": "4",
  "runs": "3",
  "seed": "17",
  "smm": "2",
  "workload": "nas"
 },
 "fastpath": {
  "mode": "auto",
  "hits": 180,
  "misses": 360,
  "probes": 30,
  "shadows": 30,
  "regions": 30,
  "certified": 30,
  "rejected": 0,
  "miss_reasons": {
   "smm": 360
  }
 }
}`

func TestManifestBackwardCompat(t *testing.T) {
	for _, doc := range []struct {
		name   string
		data   string
		schema int
	}{
		{"schema1", oldManifest, 0},
		{"schema2-fastpath", fastPathManifest, 2},
	} {
		t.Run(doc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "old.json")
			if err := os.WriteFile(path, []byte(doc.data), 0o644); err != nil {
				t.Fatal(err)
			}
			m, err := LoadManifestFile(path)
			if err != nil {
				t.Fatalf("old manifest failed to load: %v", err)
			}
			if m.Schema != doc.schema {
				t.Fatalf("Schema = %d, want %d", m.Schema, doc.schema)
			}
			if m.Obs != nil || m.Scenario != nil {
				t.Fatal("old manifest grew sink stats or a scenario echo from nowhere")
			}

			// Replay: the old flags apply onto a current flag surface
			// (which defines no -fastpath), with an explicit command-line
			// flag still winning.
			fs := flag.NewFlagSet("smisim", flag.ContinueOnError)
			bench := fs.String("bench", "EP", "")
			nodes := fs.Int("nodes", 1, "")
			runs := fs.Int("runs", 1, "")
			seed := fs.Int64("seed", 1, "")
			if err := fs.Parse([]string{"-runs", "9"}); err != nil {
				t.Fatal(err)
			}
			if err := m.Apply(fs, ExplicitFlags(fs)); err != nil {
				t.Fatalf("old manifest failed to replay: %v", err)
			}
			if *bench != "EP" || *nodes != 4 || *seed != 17 {
				t.Fatalf("replayed flags = bench %s nodes %d seed %d, want EP 4 17", *bench, *nodes, *seed)
			}
			if *runs != 9 {
				t.Fatalf("explicit -runs overridden to %d, want 9", *runs)
			}
		})
	}
}

// TestManifestCurrentRoundtrip pins that a schema-2 document with the
// new fields survives JSON → Load → JSON byte-identically.
func TestManifestCurrentRoundtrip(t *testing.T) {
	fs := flag.NewFlagSet("smisim", flag.ContinueOnError)
	fs.String("bench", "EP", "")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	m := Capture("smisim", fs)
	if m.Schema != ManifestSchema {
		t.Fatalf("Capture schema = %d, want %d", m.Schema, ManifestSchema)
	}
	m.Obs = &SinkStats{TraceEvents: 123, RingTotal: 1000, RingDropped: 7}
	m.Scenario = []byte(`{"workload":"nas"}`)
	data, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := LoadManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := m2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("roundtrip not byte-identical:\n%s\nvs\n%s", data, data2)
	}
	if !m2.Obs.Lossy() {
		t.Fatal("ring drops not reported lossy")
	}
	if (&SinkStats{TraceEvents: 5}).Lossy() {
		t.Fatal("clean sink reported lossy")
	}
	var nilStats *SinkStats
	if nilStats.Lossy() {
		t.Fatal("nil stats reported lossy")
	}
}
