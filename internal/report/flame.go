package report

import (
	"fmt"
	"sort"
	"strings"

	"smistudy/internal/obs"
)

// This file renders a trace run as a flame-style (icicle) SVG: one
// horizontal track per recovered timeline — cluster tracks first, then
// each node's CPU, rank, fabric, transport and SMM tracks — with spans
// as colored rectangles and instants as ticks on a shared time axis.
// The renderer is pure Go and emits self-contained SVG, so reports
// need no external assets or scripts.

// FlameOptions sizes a rendering. Zero values select the defaults.
type FlameOptions struct {
	Width       int // total pixel width, default 1000
	RowHeight   int // pixel height per track, default 14
	MaxElements int // SVG element budget, default 20000
}

func (o FlameOptions) withDefaults() FlameOptions {
	if o.Width <= 0 {
		o.Width = 1000
	}
	if o.RowHeight <= 0 {
		o.RowHeight = 14
	}
	if o.MaxElements <= 0 {
		o.MaxElements = 20000
	}
	return o
}

// FlameResult is a rendered run. Dropped and Culled make the renderer's
// bounds explicit: Dropped counts spans omitted because the element
// budget ran out (shortest first), Culled counts spans narrower than a
// hundredth of a pixel that could never be visible. Either being
// non-zero must be surfaced to the reader, never silently absorbed.
type FlameResult struct {
	SVG      string `json:"-"`
	Tracks   int    `json:"tracks"`
	Elements int    `json:"elements"`
	Dropped  int    `json:"dropped,omitempty"`
	Culled   int    `json:"culled,omitempty"`
}

// Category colors, keyed by the sink's "cat" field.
var catColors = map[string]string{
	"smm":   "#d62728",
	"sched": "#1f77b4",
	"mpi":   "#2ca02c",
	"net":   "#17becf",
	"fault": "#ff7f0e",
	"sweep": "#7f7f7f",
	"prof":  "#9467bd",
	"task":  "#8c564b",
	"noise": "#e377c2",
}

func colorOf(cat string) string {
	if c, ok := catColors[cat]; ok {
		return c
	}
	return "#aaaaaa"
}

const flameGutter = 170 // left label gutter in pixels

// RenderFlame renders one run of the trace as an icicle SVG. Like
// Attribute it requires ReadTrace's span order: the run is one range
// of tr.Spans and each of its tracks one range inside it.
func RenderFlame(tr *obs.Trace, run int32, opt FlameOptions) FlameResult {
	opt = opt.withDefaults()
	spans := tr.RunSpans(run)

	// Track rows in display order — cluster first, then nodes ascending,
	// tids ascending within a node — are the run's (Node, Tid) ranges.
	type rowKey struct {
		node int32
		tid  int32
	}
	var keys []rowKey
	var rowStart []int // first span of each row; the last entry ends the run
	var wallUS float64
	for i := range spans {
		s := &spans[i]
		if i == 0 || s.Node != spans[i-1].Node || s.Tid != spans[i-1].Tid {
			keys = append(keys, rowKey{s.Node, s.Tid})
			rowStart = append(rowStart, i)
		}
		if end := s.End().Seconds() * 1e6; end > wallUS {
			wallUS = end
		}
	}
	rowStart = append(rowStart, len(spans))
	if wallUS <= 0 {
		wallUS = 1
	}

	res := FlameResult{Tracks: len(keys)}
	plot := float64(opt.Width - flameGutter)
	x := func(us float64) float64 { return flameGutter + us/wallUS*plot }

	// Spend the element budget on the longest spans first so the
	// rendering degrades from the bottom: what disappears under pressure
	// is what was invisible anyway.
	type elem struct {
		row  int
		s    *obs.Span
		durU float64
	}
	elems := make([]elem, 0, len(spans))
	for ri := range keys {
		for i := rowStart[ri]; i < rowStart[ri+1]; i++ {
			elems = append(elems, elem{ri, &spans[i], spans[i].Dur.Seconds() * 1e6})
		}
	}
	sort.SliceStable(elems, func(i, j int) bool { return elems[i].durU > elems[j].durU })
	if len(elems) > opt.MaxElements {
		res.Dropped = len(elems) - opt.MaxElements
		elems = elems[:opt.MaxElements]
	}

	height := len(keys)*opt.RowHeight + 24
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="10">`,
		opt.Width, height)
	b.WriteString("\n")

	// Track labels and separators.
	for ri, k := range keys {
		y := ri * opt.RowHeight
		fmt.Fprintf(&b, `<text x="2" y="%d" fill="#333">%s</text>`,
			y+opt.RowHeight-3, esc(trackLabel(tr, run, k.node, k.tid)))
		b.WriteString("\n")
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#eee"/>`,
			flameGutter, y, opt.Width, y)
		b.WriteString("\n")
	}

	for _, e := range elems {
		y := e.row * opt.RowHeight
		startUS := e.s.Start.Seconds() * 1e6
		if e.s.Instant {
			px := x(startUS)
			fmt.Fprintf(&b, `<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" stroke="%s" stroke-width="1"><title>%s @ %.3f ms</title></line>`,
				px, y+2, px, y+opt.RowHeight-2, colorOf(e.s.Cat), esc(e.s.Name), startUS/1000)
			b.WriteString("\n")
			res.Elements++
			continue
		}
		w := e.durU / wallUS * plot
		if w < 0.01 {
			res.Culled++
			continue
		}
		if w < 0.5 {
			w = 0.5
		}
		fmt.Fprintf(&b, `<rect x="%.2f" y="%d" width="%.2f" height="%d" fill="%s" stroke="none"><title>%s: %.3f ms @ %.3f ms</title></rect>`,
			x(startUS), y+2, w, opt.RowHeight-4, colorOf(e.s.Cat), esc(e.s.Name), e.durU/1000, startUS/1000)
		b.WriteString("\n")
		res.Elements++
	}

	// Time axis.
	axisY := len(keys)*opt.RowHeight + 14
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#999"/>`,
		flameGutter, axisY-10, opt.Width, axisY-10)
	b.WriteString("\n")
	for i := 0; i <= 4; i++ {
		us := wallUS * float64(i) / 4
		fmt.Fprintf(&b, `<text x="%.0f" y="%d" fill="#666">%.2f ms</text>`,
			x(us)-18, axisY, us/1000)
		b.WriteString("\n")
	}
	b.WriteString("</svg>\n")
	res.SVG = b.String()
	return res
}

// trackLabel resolves a row's display name, preferring the sink's
// thread-name metadata and falling back to the layout's kind/index.
func trackLabel(tr *obs.Trace, run, node, tid int32) string {
	pid := obs.PidFor(run, node)
	if m := tr.ThreadNames[pid]; m != nil {
		if name, ok := m[tid]; ok && name != "" {
			if node < 0 {
				return "cluster/" + name
			}
			return fmt.Sprintf("n%d/%s", node, name)
		}
	}
	kind, idx := obs.TrackOf(node, tid)
	if node < 0 {
		return "cluster/" + kind.String()
	}
	if kind == obs.TrackCPU || kind == obs.TrackRank {
		return fmt.Sprintf("n%d/%s%d", node, kind, idx)
	}
	return fmt.Sprintf("n%d/%s", node, kind)
}

// esc escapes text for SVG/XML content.
func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
