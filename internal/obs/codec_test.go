package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"smistudy/internal/sim"
)

// FuzzReadTrace checks the streaming reader against the encoding/json
// reference: the same error-or-not outcome and, on success, the same
// Trace in every field. The seed corpus in testdata/fuzz/FuzzReadTrace
// covers each encoding/json rule the reader keeps.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	sink := NewChromeSink(&buf)
	emitSample(sink)
	if err := sink.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadTrace(t, func() io.Reader { return bytes.NewReader(data) })
	})
}

// checkReadTrace compares ReadTrace with the reference over the same
// input, each reading from its own fresh reader.
func checkReadTrace(t *testing.T, open func() io.Reader) *Trace {
	t.Helper()
	want, wantErr := referenceReadTrace(open())
	got, gotErr := ReadTrace(open())
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("ReadTrace error = %v, reference error = %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return nil
	}
	if !reflect.DeepEqual(got.Spans, want.Spans) {
		for i := range min(len(got.Spans), len(want.Spans)) {
			if got.Spans[i] != want.Spans[i] {
				t.Fatalf("span %d of %d/%d: got %+v, reference %+v",
					i, len(got.Spans), len(want.Spans), got.Spans[i], want.Spans[i])
			}
		}
		t.Fatalf("got %d spans, reference %d", len(got.Spans), len(want.Spans))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nreference %+v", *got, *want)
	}
	return got
}

// chunkReader returns data in reads of the given sizes, cycling, so
// tokens straddle the scanner's buffer at shifting offsets.
type chunkReader struct {
	data  []byte
	sizes []int
	n     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	k := min(c.sizes[c.n%len(c.sizes)], len(p), len(c.data))
	c.n++
	copy(p, c.data[:k])
	c.data = c.data[k:]
	return k, nil
}

// bigTrace emits a multi-megabyte trace: every record shape, labels
// that need escaping, collectives out of time order, and one label
// longer than the scanner's read buffer.
func bigTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := NewChromeSink(&buf)
	rng := rand.New(rand.NewSource(1))
	labels := []string{"plain", `quote " and \ slash`, "<html> & co", "tab\tnew\nline", "naïve · ü", "bad \xff utf8", " "}
	long := strings.Repeat("x", 3*readSize/2)
	for i := 0; i < 40000; i++ {
		ev := Event{
			Time: sim.Time(rng.Int63n(1 << 40)), Dur: sim.Time(rng.Int63n(1 << 20)),
			Run: int32(rng.Intn(3)), Node: int32(rng.Intn(4)) - 1, Track: int32(rng.Intn(8)),
			A: rng.Int63() - rng.Int63(), B: rng.Int63n(1 << 20),
			Type: Type(1 + rng.Intn(int(numTypes)-1)),
			Name: labels[rng.Intn(len(labels))],
		}
		if i == 20000 {
			ev.Type, ev.Name = EvUserSpan, long
		}
		sink.Emit(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 4<<20 {
		t.Fatalf("generated trace is %d bytes, want several MB", buf.Len())
	}
	return buf.Bytes()
}

// TestReadTraceAcrossReads parses the golden EP trace and a multi-MB
// generated one byte at a time and in chunks that straddle the
// scanner's buffer, each time matching the reference reader. Fuzz
// inputs fit in one read, so only this test sees a token split by a
// refill.
func TestReadTraceAcrossReads(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "durable", "testdata", "ep.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	big := bigTrace(t)
	for _, in := range []struct {
		name string
		data []byte
	}{{"ep.trace.json", golden}, {"generated", big}, {"generated torn", big[:len(big)*2/3]}} {
		t.Run(in.name, func(t *testing.T) {
			t.Run("one byte", func(t *testing.T) {
				checkReadTrace(t, func() io.Reader { return iotest.OneByteReader(bytes.NewReader(in.data)) })
			})
			t.Run("straddling chunks", func(t *testing.T) {
				sizes := []int{readSize - 1, 3, readSize + 7, 1, 4093, readSize / 2}
				tr := checkReadTrace(t, func() io.Reader { return &chunkReader{data: in.data, sizes: sizes} })
				if tr == nil || len(tr.Spans) == 0 {
					t.Fatal("no spans parsed")
				}
			})
		})
	}
}

// TestTraceTextMatchesStdlib pins the writer's number and label
// formatting to the strconv.FormatFloat and json.Marshal text it
// replaced, byte for byte.
func TestTraceTextMatchesStdlib(t *testing.T) {
	const p52 = sim.Time(1) << 52
	times := []sim.Time{0, 1, -1, 999, -999, 1000, -1000, 1001, 123456789,
		p52 - 1, p52, p52 + 1, -p52 + 1, -p52, -p52 - 1, 1 << 62, -1 << 62}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		times = append(times, sim.Time(rng.Int63n(int64(p52))), -sim.Time(rng.Int63()))
	}
	for _, tm := range times {
		want := strconv.FormatFloat(float64(tm)/float64(sim.Microsecond), 'f', 3, 64)
		if got := string(appendUS(nil, tm)); got != want {
			t.Errorf("appendUS(%d) = %s, FormatFloat gives %s", tm, got, want)
		}
	}
	labels := []string{"", "run", "cell start", `a"b`, `a\b`, "<", ">", "&", "\x00", "\x1f", "\x7f",
		"tab\t", "naïve", "run1 · node0", "  ", "\xff", "ok\xc3", "\xed\xa0\x80"}
	for _, l := range labels {
		want, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendLabel(nil, l); !bytes.Equal(got, want) {
			t.Errorf("appendLabel(%q) = %s, json.Marshal gives %s", l, got, want)
		}
	}
}

// failingWriter accepts limit bytes, then fails; it records every write.
type failingWriter struct {
	limit    int
	accepted bytes.Buffer
	writes   []int
}

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	if len(p) > w.limit {
		n := w.limit
		w.accepted.Write(p[:n])
		w.limit = 0
		return n, errDiskFull
	}
	w.limit -= len(p)
	w.accepted.Write(p)
	return len(p), nil
}

// TestChromeSinkChunksAndWriteErrors checks that the sink writes in
// chunks of at least chunkSize bytes and nothing once closed, and that
// after a failed write
// Close and Err report the error while Events counts only the records
// of chunks the writer accepted in full — the count smireport compares
// with a parsed trace's Records.
func TestChromeSinkChunksAndWriteErrors(t *testing.T) {
	emit := func(sink *ChromeSink) {
		for i := 0; i < 20000; i++ {
			sink.Emit(Event{Time: sim.Time(i) * sim.Microsecond, Type: EvSchedRun, Node: int32(i % 3), Track: int32(i % 5), A: int64(i)})
		}
	}
	full := &failingWriter{limit: 1 << 30}
	sink := NewChromeSink(full)
	emit(sink)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	for i, n := range full.writes[:len(full.writes)-1] {
		if n < chunkSize {
			t.Fatalf("write %d of %d is %d bytes, want >= %d", i, len(full.writes), n, chunkSize)
		}
	}
	if len(full.writes) < 4 {
		t.Fatalf("%d writes, want several chunks", len(full.writes))
	}
	writes := len(full.writes)
	emit(sink)
	if err := sink.Close(); err != nil || len(full.writes) != writes {
		t.Fatalf("use after Close: error %v, %d more writes", err, len(full.writes)-writes)
	}
	all, err := ReadTrace(&full.accepted)
	if err != nil {
		t.Fatal(err)
	}
	if all.Truncated || all.Records != sink.Events() {
		t.Fatalf("complete trace: truncated %v, %d records, sink counted %d",
			all.Truncated, all.Records, sink.Events())
	}

	for _, limit := range []int{0, full.writes[0] - 1, full.writes[0] + full.writes[1] + 100} {
		t.Run(fmt.Sprint("limit ", limit), func(t *testing.T) {
			w := &failingWriter{limit: limit}
			sink := NewChromeSink(w)
			emit(sink)
			if err := sink.Close(); !errors.Is(err, errDiskFull) {
				t.Fatalf("Close = %v, want the write error", err)
			}
			if !errors.Is(sink.Err(), errDiskFull) {
				t.Fatalf("Err = %v, want the write error", sink.Err())
			}
			// Chunks end on record boundaries, so a torn read of the
			// whole chunks the writer took counts their records.
			whole := 0
			for _, n := range w.writes {
				if whole+n > limit {
					break
				}
				whole += n
			}
			var inFull int64
			if whole > 0 {
				tr, err := ReadTrace(bytes.NewReader(w.accepted.Bytes()[:whole]))
				if err != nil {
					t.Fatal(err)
				}
				inFull = tr.Records
			}
			if got := sink.Events(); got != inFull || got >= all.Records {
				t.Fatalf("Events = %d, want %d (records in fully accepted chunks, of %d)", got, inFull, all.Records)
			}
		})
	}
}

// TestChromeSinkEmitAllocs pins the writer's steady state: once a
// track is named, writing a record allocates nothing.
func TestChromeSinkEmitAllocs(t *testing.T) {
	sink := NewChromeSink(io.Discard)
	evs := []Event{
		{Type: EvSchedRun, Node: 0, Track: 1, A: 7},
		{Type: EvMPISend, Node: 0, Track: 0, A: 1, B: 1 << 10},
		{Type: EvNetDeliver, Node: 0, Track: -1, A: 1, B: 1 << 10, Dur: 50 * sim.Microsecond},
		{Type: EvSMMExit, Node: 1, Dur: 90 * sim.Microsecond},
		{Type: EvStealExit, Node: 1, Track: 3, Dur: 5 * sim.Microsecond, Name: "osjitter"},
		{Type: EvCollBegin, Node: 0, Track: 0, Name: "allreduce"},
		{Type: EvCollEnd, Node: 0, Track: 0, Name: "allreduce"},
	}
	i := 0
	emit := func() {
		ev := evs[i%len(evs)]
		ev.Time = sim.Time(i) * sim.Microsecond
		sink.Emit(ev)
		i++
	}
	for range evs {
		emit()
	}
	if n := testing.AllocsPerRun(10000, emit); n != 0 {
		t.Fatalf("Emit allocates %.2f objects per record, want 0", n)
	}
}
