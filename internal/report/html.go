package report

import (
	"fmt"
	"sort"
	"strings"

	"smistudy/internal/obs"
)

// HTML rendering: one self-contained document, no external assets, no
// scripts — inline CSS, inline SVG flames, plain tables. The document
// is meant to be archived next to the run artifacts and stay readable
// in ten years, so nothing in it depends on anything outside the file.

var catCSS = map[string]string{
	CatCompute:        "#2ca02c",
	CatSMMStolen:      "#d62728",
	"osjitter-stolen": "#e377c2",
	CatCommWait:       "#1f77b4",
	CatRetransmit:     "#ff7f0e",
	CatIdle:           "#c7c7c7",
}

// catColor resolves a category's color. Unknown "<family>-stolen"
// categories (noise families landed after this table) share the SMM
// red's darker cousin so stolen time is always visually stolen.
func catColor(label string) string {
	if c, ok := catCSS[label]; ok {
		return c
	}
	if strings.HasSuffix(label, "-stolen") {
		return "#a83232"
	}
	return "#aaaaaa"
}

// HTML renders the report as a self-contained document.
func (r *Report) HTML() []byte {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>smireport</title><style>
body { font-family: system-ui, sans-serif; margin: 2em auto; max-width: 70em; color: #222; }
h1, h2, h3 { font-weight: 600; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #ddd; padding: 0.25em 0.6em; text-align: left; font-size: 0.9em; }
th { background: #f5f5f5; }
.warn { background: #fff3cd; border: 1px solid #ffe08a; padding: 0.5em 0.8em; margin: 0.3em 0; border-radius: 4px; }
.viol { background: #f8d7da; border: 1px solid #f1aeb5; padding: 0.5em 0.8em; margin: 0.3em 0; border-radius: 4px; }
.ok { background: #d1e7dd; border: 1px solid #a3cfbb; padding: 0.5em 0.8em; margin: 0.3em 0; border-radius: 4px; }
ul.tree { list-style: none; padding-left: 1.2em; }
ul.tree > li { margin: 0.1em 0; }
.bar { display: inline-block; height: 0.7em; vertical-align: baseline; border-radius: 2px; }
.mono { font-family: monospace; font-size: 0.9em; }
.dim { color: #777; }
svg { border: 1px solid #eee; margin: 0.5em 0; }
</style></head><body>
`)
	fmt.Fprintf(&b, "<h1>SMI study run report</h1>\n<p class=\"dim\">%s</p>\n", esc(r.Tool))

	if r.Manifest != nil {
		m := r.Manifest
		b.WriteString("<h2>Run</h2>\n<table>\n")
		row := func(k, v string) {
			if v != "" {
				fmt.Fprintf(&b, "<tr><th>%s</th><td class=\"mono\">%s</td></tr>\n", esc(k), esc(v))
			}
		}
		row("command", m.Command)
		row("obs version", m.Version)
		row("go", m.GoVersion)
		schema := m.Schema
		if schema == 0 {
			schema = 1
		}
		row("manifest schema", fmt.Sprintf("%d", schema))
		var flags []string
		for k := range m.Flags {
			flags = append(flags, k)
		}
		sort.Strings(flags)
		for _, k := range flags {
			row("-"+k, m.Flags[k])
		}
		if m.Obs != nil {
			row("trace events", fmt.Sprintf("%d", m.Obs.TraceEvents))
			if m.Obs.RingTotal > 0 {
				row("ring events", fmt.Sprintf("%d (%d dropped)", m.Obs.RingTotal, m.Obs.RingDropped))
			}
			row("trace error", m.Obs.TraceError)
		}
		b.WriteString("</table>\n")
	}

	for _, w := range r.Warnings {
		fmt.Fprintf(&b, "<div class=\"warn\">⚠ %s</div>\n", esc(w))
	}
	if len(r.Violations) == 0 {
		b.WriteString("<div class=\"ok\">✓ all attribution invariants hold</div>\n")
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "<div class=\"viol\">✗ <span class=\"mono\">%s</span>: %s</div>\n",
			esc(v.Path), esc(v.Detail))
	}

	if r.Aggregate != nil {
		b.WriteString("<h2>Where the time went</h2>\n")
		b.WriteString("<p>Each CPU's wall time, decomposed exactly: " + legendHTML() + "</p>\n")
		writeTree(&b, r.Aggregate, r.Aggregate.Seconds)
		for _, ra := range r.Runs {
			fmt.Fprintf(&b, "<h3>run %d <span class=\"dim\">(%.4g s wall", ra.Run, ra.WallSeconds)
			b.WriteString(")</span></h3>\n")
			writeTree(&b, ra.Tree, ra.Tree.Seconds)
			if len(ra.Ranks) > 0 {
				b.WriteString("<table>\n<tr><th>rank</th><th>node</th><th>sends</th><th>recvs</th><th>send bytes</th><th>collective s</th></tr>\n")
				for _, rs := range ra.Ranks {
					fmt.Fprintf(&b, "<tr><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%.4g</td></tr>\n",
						rs.Rank, rs.Node, rs.Sends, rs.Recvs, rs.SendBytes, rs.CollSeconds)
				}
				b.WriteString("</table>\n")
			}
		}
	}

	if len(r.Flames) > 0 {
		b.WriteString("<h2>Timeline</h2>\n")
		for i, fl := range r.Flames {
			run := int32(i)
			if i < len(r.flameRuns) {
				run = r.flameRuns[i]
			}
			fmt.Fprintf(&b, "<h3>run %d <span class=\"dim\">(%d tracks, %d elements", run, fl.Tracks, fl.Elements)
			if fl.Dropped > 0 {
				fmt.Fprintf(&b, ", %d dropped", fl.Dropped)
			}
			if fl.Culled > 0 {
				fmt.Fprintf(&b, ", %d sub-pixel spans culled", fl.Culled)
			}
			b.WriteString(")</span></h3>\n")
			b.WriteString(fl.SVG)
		}
	}

	if r.Metrics != nil && len(r.Metrics.Histograms) > 0 {
		b.WriteString("<h2>Distributions</h2>\n")
		for _, h := range r.Metrics.Histograms {
			writeHistogram(&b, h)
		}
	}

	if r.Similarity != nil {
		writeSimilarity(&b, r.Similarity)
	}

	b.WriteString("</body></html>\n")
	return []byte(b.String())
}

func legendHTML() string {
	var b strings.Builder
	for _, c := range []string{CatCompute, CatSMMStolen, "osjitter-stolen", CatCommWait, CatRetransmit, CatIdle} {
		fmt.Fprintf(&b, `<span class="bar" style="width:0.8em;background:%s"></span> %s&nbsp; `, catColor(c), esc(c))
	}
	return b.String()
}

// writeTree renders an attribution tree as nested lists with
// proportional bars; category bars are scaled against the wall time so
// sibling categories visually sum to a full-width parent.
func writeTree(b *strings.Builder, n *Node, wall float64) {
	b.WriteString("<ul class=\"tree\">\n")
	var walk func(n *Node)
	walk = func(n *Node) {
		b.WriteString("<li>")
		if n.Kind == "category" {
			width := 0.0
			if wall > 0 {
				width = n.Seconds / wall * 240
			}
			fmt.Fprintf(b, `<span class="bar" style="width:%.1fpx;background:%s"></span> `,
				width, catColor(n.Label))
		}
		pct := ""
		if wall > 0 && n.Kind == "category" {
			pct = fmt.Sprintf(" <span class=\"dim\">(%.1f%%)</span>", n.Seconds/wall*100)
		}
		cnt := ""
		if n.Count > 0 {
			cnt = fmt.Sprintf(" <span class=\"dim\">×%d</span>", n.Count)
		}
		fmt.Fprintf(b, "%s <span class=\"mono\">%.4g s</span>%s%s", esc(n.Label), n.Seconds, pct, cnt)
		for _, a := range n.Anomalies {
			fmt.Fprintf(b, " <span class=\"viol\">%s</span>", esc(a))
		}
		if len(n.Children) > 0 {
			b.WriteString("<ul class=\"tree\">\n")
			for _, c := range n.Children {
				walk(c)
			}
			b.WriteString("</ul>\n")
		}
		b.WriteString("</li>\n")
	}
	walk(n)
	b.WriteString("</ul>\n")
}

// writeHistogram renders one fixed-bucket histogram as a table with
// inline count bars. The log2 bounds come from the registry as-is.
func writeHistogram(b *strings.Builder, h obs.HistogramSnap) {
	id := ""
	if h.ID != 0 {
		id = fmt.Sprintf(" <span class=\"dim\">#%d</span>", h.ID)
	}
	mean := 0.0
	if h.N > 0 {
		mean = h.Sum / float64(h.N)
	}
	fmt.Fprintf(b, "<h3 class=\"mono\">%s%s</h3>\n<p class=\"dim\">n=%d mean=%.4g max=%.4g</p>\n",
		esc(h.Name), id, h.N, mean, h.Max)
	var peak int64 = 1
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	b.WriteString("<table>\n<tr><th>bucket</th><th>count</th><th></th></tr>\n")
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		label := ""
		switch {
		case i < len(h.Bounds):
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			label = fmt.Sprintf("%.4g – %.4g", lo, h.Bounds[i])
		default:
			label = fmt.Sprintf("> %.4g", h.Bounds[len(h.Bounds)-1])
		}
		fmt.Fprintf(b, `<tr><td class="mono">%s</td><td>%d</td><td><span class="bar" style="width:%.0fpx;background:#1f77b4"></span></td></tr>`,
			esc(label), c, float64(c)/float64(peak)*160)
		b.WriteString("\n")
	}
	b.WriteString("</table>\n")
}

func writeSimilarity(b *strings.Builder, s *Similarity) {
	b.WriteString("<h2>Cross-run similarity</h2>\n")
	fmt.Fprintf(b, "<p>%d cells form <b>%d behavior cluster(s)</b> (merge threshold %.3g, features: <span class=\"mono\">%s</span>).</p>\n",
		len(s.Cells), s.Clusters, s.Threshold, esc(strings.Join(s.FeatureNames, ", ")))
	if len(s.Dimensions) > 0 {
		b.WriteString("<p>Which scenario dimensions explain the clusters (Rand index vs the clustering; 1 = fully explains, ~0.5 = noise):</p>\n")
		b.WriteString("<table>\n<tr><th>dimension</th><th>distinct values</th><th>relevance</th><th></th></tr>\n")
		for _, d := range s.Dimensions {
			fmt.Fprintf(b, `<tr><td class="mono">%s</td><td>%d</td><td>%.3f</td><td><span class="bar" style="width:%.0fpx;background:%s"></span></td></tr>`,
				esc(d.Name), d.Values, d.Relevance, d.Relevance*160, relColor(d.Relevance))
			b.WriteString("\n")
		}
		b.WriteString("</table>\n")
	}
	b.WriteString("<table>\n<tr><th>cell</th><th>cluster</th></tr>\n")
	for i, c := range s.Cells {
		fmt.Fprintf(b, "<tr><td class=\"mono\">%s</td><td>%d</td></tr>\n", esc(c), s.Cluster[i])
	}
	b.WriteString("</table>\n")
}

func relColor(r float64) string {
	if r >= 0.8 {
		return "#2ca02c"
	}
	if r >= 0.6 {
		return "#ff7f0e"
	}
	return "#c7c7c7"
}
