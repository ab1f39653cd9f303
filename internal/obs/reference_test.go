package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// referenceReadTrace is ReadTrace written on encoding/json's Decoder:
// the reader the streaming scanner replaced, kept as the reference it
// must agree with on every input.
func referenceReadTrace(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	tr := &Trace{
		ProcNames:   map[int64]string{},
		ThreadNames: map[int64]map[int32]string{},
	}
	// Expect `{ "traceEvents" : [`.
	for _, want := range []json.Delim{'{'} {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("obs: trace: %w", err)
		}
		if d, ok := tok.(json.Delim); !ok || d != want {
			return nil, fmt.Errorf("obs: trace: unexpected token %v", tok)
		}
	}
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("obs: trace: %w", err)
	}
	if key, ok := tok.(string); !ok || key != "traceEvents" {
		return nil, fmt.Errorf("obs: trace: expected traceEvents, got %v", tok)
	}
	if tok, err = dec.Token(); err != nil {
		return nil, fmt.Errorf("obs: trace: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return nil, fmt.Errorf("obs: trace: expected event array, got %v", tok)
	}

	// open tracks per-(pid,tid) unmatched "B" edges, a stack per track
	// (collectives nest).
	type trackID struct {
		pid int64
		tid int32
	}
	open := map[trackID][]rawEvent{}
	for dec.More() {
		var ev rawEvent
		if err := dec.Decode(&ev); err != nil {
			// A tear inside the array: keep what we have.
			tr.Truncated = true
			break
		}
		tr.Records++
		run, node := SplitPid(ev.Pid)
		kind, idx := TrackOf(node, ev.Tid)
		switch ev.Ph {
		case "M":
			switch ev.Name {
			case "process_name":
				tr.ProcNames[ev.Pid] = ev.Args.Name
			case "thread_name":
				m := tr.ThreadNames[ev.Pid]
				if m == nil {
					m = map[int32]string{}
					tr.ThreadNames[ev.Pid] = m
				}
				m[ev.Tid] = ev.Args.Name
			}
		case "X":
			tr.Spans = append(tr.Spans, Span{
				Run: run, Node: node, Tid: ev.Tid, Kind: kind, Index: idx,
				Name: ev.Name, Cat: ev.Cat,
				Start: fromUS(ev.Ts), Dur: fromUS(ev.Dur),
				A: ev.Args.A, B: ev.Args.B,
			})
		case "i", "I":
			tr.Spans = append(tr.Spans, Span{
				Run: run, Node: node, Tid: ev.Tid, Kind: kind, Index: idx,
				Name: ev.Name, Cat: ev.Cat,
				Start: fromUS(ev.Ts),
				A:     ev.Args.A, B: ev.Args.B, Instant: true,
			})
		case "B":
			id := trackID{ev.Pid, ev.Tid}
			open[id] = append(open[id], ev)
		case "E":
			id := trackID{ev.Pid, ev.Tid}
			stack := open[id]
			if len(stack) == 0 {
				tr.Unbalanced++
				continue
			}
			b := stack[len(stack)-1]
			open[id] = stack[:len(stack)-1]
			tr.Spans = append(tr.Spans, Span{
				Run: run, Node: node, Tid: ev.Tid, Kind: kind, Index: idx,
				Name: b.Name, Cat: b.Cat,
				Start: fromUS(b.Ts), Dur: fromUS(ev.Ts) - fromUS(b.Ts),
				A: b.Args.A, B: b.Args.B,
			})
		}
	}
	if !tr.Truncated {
		// Consume `] }`; a tear here still means a complete event list.
		if _, err := dec.Token(); err != nil {
			tr.Truncated = true
		} else if _, err := dec.Token(); err != nil {
			tr.Truncated = true
		}
	}
	for _, stack := range open {
		tr.Unbalanced += len(stack)
	}
	sort.SliceStable(tr.Spans, func(i, j int) bool {
		a, b := tr.Spans[i], tr.Spans[j]
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Name < b.Name
	})
	return tr, nil
}
