// Package report turns run artifacts — Chrome/Perfetto traces from the
// obs bus, metrics snapshots, run manifests, durable result stores —
// into self-contained HTML and JSON reports: a time-attribution tree
// per run/node/CPU (the simulated analogue of a top-down TMA
// breakdown), a flame/icicle rendering of the trace, and a cross-run
// similarity analysis that flags which scenario dimensions actually
// change behavior.
//
// The attribution tree answers the paper's core question — where did
// the wall time go? — from bus events alone: every logical CPU's
// timeline is partitioned exactly into compute, SMM-stolen, per-family
// stolen time (one <family>-stolen category per perturbation source,
// e.g. osjitter-stolen), communication-wait, fault-retransmit wait and
// idle, so the categories sum to the wall time by construction and any
// residue is a processing bug the invariant checker surfaces.
package report

import (
	"fmt"
	"sort"

	"smistudy/internal/obs"
	"smistudy/internal/sim"
)

// Attribution categories. They partition a CPU's timeline exactly.
// Per-CPU perturbation sources additionally contribute one
// "<family>-stolen" category each (e.g. "osjitter-stolen").
const (
	CatCompute    = "compute"          // on-CPU, outside SMM
	CatSMMStolen  = "smm-stolen"       // stalled in System Management Mode
	CatCommWait   = "comm-wait"        // off-CPU on a node with MPI ranks
	CatRetransmit = "fault-retransmit" // off-CPU while the transport retransmitted
	CatIdle       = "idle"             // off-CPU on a node without MPI ranks
)

// Node is one vertex of a time-attribution tree.
type Node struct {
	Label string `json:"label"`
	// Kind is run, node, cpu or category.
	Kind    string  `json:"kind"`
	Seconds float64 `json:"seconds"`
	// Parallel marks a vertex whose children are concurrent timelines
	// (a run's nodes, a node's CPUs): each child covers the parent's
	// interval, so children individually equal the parent rather than
	// summing to it. Category children of a CPU are an additive
	// partition instead.
	Parallel bool    `json:"parallel,omitempty"`
	Children []*Node `json:"children,omitempty"`
	// Count carries a category's event count where one is meaningful
	// (retransmissions).
	Count int64 `json:"count,omitempty"`
	// Anomalies records accounting irregularities found while building
	// this vertex (clamped negatives, unmatched span edges) — the
	// report's analogue of trace.TaskSample.Anomalous.
	Anomalies []string `json:"anomalies,omitempty"`
}

// Violation is one failed attribution invariant.
type Violation struct {
	Path   string `json:"path"`
	Detail string `json:"detail"`
}

// Check verifies the tree's invariants recursively: category children
// sum to their parent within tol (relative), parallel children each
// match their parent within tol, every vertex is non-negative, and no
// category exceeds its parent. Anomalies recorded during construction
// are violations too — they mean the partition needed clamping.
func (n *Node) Check(tol float64) []Violation {
	var out []Violation
	n.check("", tol, &out)
	return out
}

func (n *Node) check(prefix string, tol float64, out *[]Violation) {
	path := n.Label
	if prefix != "" {
		path = prefix + "/" + n.Label
	}
	if n.Seconds < 0 {
		*out = append(*out, Violation{path, fmt.Sprintf("negative time %.6g s", n.Seconds)})
	}
	for _, a := range n.Anomalies {
		*out = append(*out, Violation{path, a})
	}
	if len(n.Children) > 0 {
		slack := tol * n.Seconds
		if n.Parallel {
			for _, c := range n.Children {
				if d := c.Seconds - n.Seconds; d > slack || d < -slack {
					*out = append(*out, Violation{path, fmt.Sprintf(
						"parallel child %s covers %.6g s of a %.6g s parent (tol %.2g%%)",
						c.Label, c.Seconds, n.Seconds, tol*100)})
				}
			}
		} else {
			var sum float64
			for _, c := range n.Children {
				sum += c.Seconds
				if c.Seconds > n.Seconds+slack {
					*out = append(*out, Violation{path, fmt.Sprintf(
						"child %s (%.6g s) exceeds parent (%.6g s)", c.Label, c.Seconds, n.Seconds)})
				}
			}
			if d := sum - n.Seconds; d > slack || d < -slack {
				*out = append(*out, Violation{path, fmt.Sprintf(
					"children sum to %.6g s, parent is %.6g s (tol %.2g%%)", sum, n.Seconds, tol*100)})
			}
		}
	}
	for _, c := range n.Children {
		c.check(path, tol, out)
	}
}

// Find walks the tree by labels.
func (n *Node) Find(labels ...string) *Node {
	cur := n
	for _, l := range labels {
		var next *Node
		for _, c := range cur.Children {
			if c.Label == l {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		cur = next
	}
	return cur
}

// CategoryTotal sums the given category's seconds over every CPU leaf
// under n, alongside the total wall-seconds of those leaves, so a
// caller can form the category's overall fraction.
func (n *Node) CategoryTotal(category string) (catSec, wallSec float64) {
	if n.Kind == "cpu" {
		wallSec += n.Seconds
		for _, c := range n.Children {
			if c.Label == category {
				catSec += c.Seconds
			}
		}
		return
	}
	for _, c := range n.Children {
		cs, ws := c.CategoryTotal(category)
		catSec += cs
		wallSec += ws
	}
	return
}

// RankStats summarizes one MPI rank's traffic in a run.
type RankStats struct {
	Node        int32   `json:"node"`
	Rank        int     `json:"rank"`
	Sends       int64   `json:"sends"`
	Recvs       int64   `json:"recvs"`
	SendBytes   int64   `json:"send_bytes"`
	CollSeconds float64 `json:"coll_seconds"`
}

// RunAttribution is one run's attribution tree plus per-rank traffic.
type RunAttribution struct {
	Run         int32       `json:"run"`
	WallSeconds float64     `json:"wall_seconds"`
	Tree        *Node       `json:"tree"`
	Ranks       []RankStats `json:"ranks,omitempty"`
}

// iv is a half-open interval [lo, hi) on the simulation timeline.
type iv struct{ lo, hi sim.Time }

// clipMerge sorts, clips to [0, wall] and merges overlapping intervals.
func clipMerge(ivs []iv, wall sim.Time) []iv {
	var out []iv
	for _, x := range ivs {
		if x.lo < 0 {
			x.lo = 0
		}
		if x.hi > wall {
			x.hi = wall
		}
		if x.hi > x.lo {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lo < out[j].lo })
	merged := out[:0]
	for _, x := range out {
		if n := len(merged); n > 0 && x.lo <= merged[n-1].hi {
			if x.hi > merged[n-1].hi {
				merged[n-1].hi = x.hi
			}
			continue
		}
		merged = append(merged, x)
	}
	return merged
}

// total sums interval lengths.
func total(ivs []iv) sim.Time {
	var t sim.Time
	for _, x := range ivs {
		t += x.hi - x.lo
	}
	return t
}

// intersect returns the intersection of two merged interval sets.
func intersect(a, b []iv) []iv {
	var out []iv
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := maxT(a[i].lo, b[j].lo), minT(a[i].hi, b[j].hi)
		if hi > lo {
			out = append(out, iv{lo, hi})
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// complement returns [0, wall] minus the merged set.
func complement(a []iv, wall sim.Time) []iv {
	var out []iv
	cur := sim.Time(0)
	for _, x := range a {
		if x.lo > cur {
			out = append(out, iv{cur, x.lo})
		}
		cur = x.hi
	}
	if cur < wall {
		out = append(out, iv{cur, wall})
	}
	return out
}

// splitBy partitions the merged set a into the parts that do / do not
// contain any of the given instants.
func splitBy(a []iv, instants []sim.Time) (with, without []iv) {
	for _, x := range a {
		hit := false
		for _, t := range instants {
			if t >= x.lo && t < x.hi {
				hit = true
				break
			}
		}
		if hit {
			with = append(with, x)
		} else {
			without = append(without, x)
		}
	}
	return
}

func maxT(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

func minT(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}

// Attribute builds one attribution tree per run in the trace. It
// requires ReadTrace's span order, (Run, Node, Tid, Start, Name): each
// run, node and track is read in place as one contiguous range of
// tr.Spans.
func Attribute(tr *obs.Trace) []RunAttribution {
	var out []RunAttribution
	for _, run := range tr.RunIDs() {
		out = append(out, attributeRun(tr.RunSpans(run), run))
	}
	return out
}

// attributeRun attributes one run's spans, ordered by (Node, Tid).
func attributeRun(spans []obs.Span, run int32) RunAttribution {
	ra := RunAttribution{Run: run}
	root := &Node{Label: fmt.Sprintf("run%d", run), Kind: "run", Parallel: true}
	ra.Tree = root

	// Wall time: the sweep-cell span; without one (a torn trace, or a
	// run traced outside the runner) fall back to the last event time.
	var wall sim.Time
	haveCell := false
	for i := range spans {
		if s := &spans[i]; s.Kind == obs.TrackCells && !s.Instant && s.Name == "cell" {
			wall = s.Dur
			haveCell = true
		}
	}
	if !haveCell {
		for i := range spans {
			if end := spans[i].End(); end > wall {
				wall = end
			}
		}
		if wall > 0 {
			root.Anomalies = append(root.Anomalies,
				"no sweep-cell span: wall time estimated from the last event")
		}
	}
	root.Seconds = wall.Seconds()
	ra.WallSeconds = wall.Seconds()

	// Each node's spans are one range; cluster-scoped ones (node < 0)
	// come first and carry no CPU timeline.
	for lo := 0; lo < len(spans); {
		node := spans[lo].Node
		hi := lo + 1
		for hi < len(spans) && spans[hi].Node == node {
			hi++
		}
		if node >= 0 {
			nn, ranks := attributeNode(node, spans[lo:hi], wall)
			root.Children = append(root.Children, nn)
			ra.Ranks = append(ra.Ranks, ranks...)
		}
		lo = hi
	}
	return ra
}

// attributeNode partitions each of a node's CPU timelines from the
// node's spans, ordered by Tid so each track is one range.
func attributeNode(node int32, spans []obs.Span, wall sim.Time) (*Node, []RankStats) {
	nn := &Node{Label: fmt.Sprintf("node%d", node), Kind: "node",
		Seconds: wall.Seconds(), Parallel: true}

	var smm []iv
	var retrans []sim.Time
	var ranks []RankStats
	taskNames := map[int64]string{}
	cpuEdges := map[int][]schedEdge{}
	steals := map[int]map[string][]iv{} // cpu → noise family → steal windows

	for lo := 0; lo < len(spans); {
		hi := lo + 1
		for hi < len(spans) && spans[hi].Tid == spans[lo].Tid {
			hi++
		}
		track := spans[lo:hi]
		lo = hi
		// Kind and Index are functions of (node, tid): one per track.
		switch idx := track[0].Index; track[0].Kind {
		case obs.TrackSMM:
			for i := range track {
				if s := &track[i]; !s.Instant {
					smm = append(smm, iv{s.Start, s.End()})
				}
			}
		case obs.TrackSteal:
			for i := range track {
				if s := &track[i]; !s.Instant {
					fams := steals[idx]
					if fams == nil {
						fams = map[string][]iv{}
						steals[idx] = fams
					}
					fams[s.Name] = append(fams[s.Name], iv{s.Start, s.End()})
				}
			}
		case obs.TrackTransport:
			for i := range track {
				if s := &track[i]; s.Instant {
					retrans = append(retrans, s.Start)
				}
			}
		case obs.TrackTasks:
			for i := range track {
				if s := &track[i]; s.Instant && s.Name != "exit" {
					taskNames[s.A] = s.Name
				}
			}
		case obs.TrackCPU:
			edges := cpuEdges[idx]
			for i := range track {
				s := &track[i]
				if !s.Instant {
					continue
				}
				switch s.Name {
				case "run":
					edges = append(edges, schedEdge{s.Start, s.A, true})
				case "preempt":
					edges = append(edges, schedEdge{s.Start, s.A, false})
				case "migrate":
					// One record, on the destination CPU, with the
					// source CPU in B: the thread leaves B and enters
					// this CPU (a migrate onto its own CPU only enters).
					if from := int(s.B); from >= 0 && from != idx {
						cpuEdges[from] = append(cpuEdges[from], schedEdge{s.Start, s.A, false})
					}
					edges = append(edges, schedEdge{s.Start, s.A, true})
				}
			}
			cpuEdges[idx] = edges
		case obs.TrackRank:
			rs := RankStats{Node: node, Rank: idx}
			for i := range track {
				switch s := &track[i]; {
				case s.Instant && s.Name == "send":
					rs.Sends++
					rs.SendBytes += s.B
				case s.Instant && s.Name == "recv":
					rs.Recvs++
				case !s.Instant:
					rs.CollSeconds += s.Dur.Seconds()
				}
			}
			ranks = append(ranks, rs)
		}
	}
	smm = clipMerge(smm, wall)
	hasRanks := len(ranks) > 0

	// CPUs appear from scheduling events or from steal windows — a core
	// that only ever got stolen from still owns a timeline.
	var cpus []int
	for c := range cpuEdges {
		cpus = append(cpus, c)
	}
	for c := range steals {
		if _, ok := cpuEdges[c]; !ok {
			cpus = append(cpus, c)
		}
	}
	sort.Ints(cpus)
	for _, c := range cpus {
		nn.Children = append(nn.Children,
			attributeCPU(c, cpuEdges[c], smm, steals[c], retrans, wall, hasRanks, taskNames))
	}
	return nn, ranks
}

// schedEdge is one thread entering (run, migrate in) or leaving
// (preempt, migrate out) a logical CPU.
type schedEdge struct {
	at    sim.Time
	tid   int64
	enter bool
}

// attributeCPU partitions one logical CPU's [0, wall] exactly:
//
//	on-CPU  ∖ claimed          → compute
//	SMM residency              → smm-stolen (stalled whether running or waiting)
//	family steal windows       → <family>-stolen (per-CPU steals, e.g. osjitter)
//	off-CPU ∖ claimed, marked  → fault-retransmit (a retransmission fired inside)
//	off-CPU ∖ claimed, rest    → comm-wait (MPI node) or idle
//
// where claimed is the union of the SMM windows and every family's
// steal windows. Overlaps are resolved deterministically — SMM claims
// first, then families in sorted name order — so the partition stays
// exhaustive and disjoint and the category leaves sum to the wall time
// exactly; clamping never occurs by construction, and unmatched
// scheduling edges are surfaced as anomalies instead of silently
// skewing a bucket.
func attributeCPU(cpu int, edges []schedEdge, smm []iv, steals map[string][]iv,
	retrans []sim.Time, wall sim.Time, hasRanks bool, taskNames map[int64]string) *Node {

	// Edges pair per thread. One thread's edges at one instant (several
	// scheduling passes at the same time) alternate enter/leave but can
	// reach this list in any order, so they are folded into their net
	// effect: more enters than leaves puts the thread on the CPU, more
	// leaves takes it off.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].tid < edges[j].tid
	})
	var busy []iv
	open := map[int64]sim.Time{} // thread id → when it entered
	anomalies := 0
	occupant := map[int64]int{} // thread id → enter count, for the label
	for i := 0; i < len(edges); {
		at, tid, net := edges[i].at, edges[i].tid, 0
		for ; i < len(edges) && edges[i].at == at && edges[i].tid == tid; i++ {
			if edges[i].enter {
				net++
				occupant[tid]++
			} else {
				net--
			}
		}
		start, on := open[tid]
		switch {
		case net > 0 && !on:
			open[tid] = at
		case net < 0 && on:
			busy = append(busy, iv{start, at})
			delete(open, tid)
		case net < 0:
			anomalies++
		}
	}
	for _, start := range open {
		busy = append(busy, iv{start, wall})
	}
	busy = clipMerge(busy, wall)

	// Resolve overlapping claims deterministically: SMM first, then each
	// family's per-CPU steal windows in sorted name order, each family
	// keeping only what no earlier claimant took.
	var fams []string
	for f := range steals {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	claimed := smm
	type famPart struct {
		name string
		ivs  []iv
	}
	var famParts []famPart
	for _, f := range fams {
		st := subtract(clipMerge(steals[f], wall), claimed)
		famParts = append(famParts, famPart{f, st})
		claimed = clipMerge(append(append([]iv(nil), claimed...), st...), wall)
	}

	computeIv := subtract(busy, claimed)
	off := complement(busy, wall)
	offAwake := subtract(off, claimed)
	waitRetrans, waitPlain := splitBy(offAwake, retrans)

	label := fmt.Sprintf("cpu%d", cpu)
	if name := majorityName(occupant, taskNames); name != "" {
		label += " · " + name
	}
	n := &Node{Label: label, Kind: "cpu", Seconds: wall.Seconds()}
	if anomalies > 0 {
		n.Anomalies = append(n.Anomalies,
			fmt.Sprintf("%d unmatched preempt edges (trace starts mid-run or is lossy)", anomalies))
	}
	waitCat := CatIdle
	if hasRanks {
		waitCat = CatCommWait
	}
	cats := []struct {
		label string
		secs  float64
		count int64
	}{
		{CatCompute, total(computeIv).Seconds(), 0},
		{CatSMMStolen, total(smm).Seconds(), int64(len(smm))},
	}
	for _, fp := range famParts {
		cats = append(cats, struct {
			label string
			secs  float64
			count int64
		}{fp.name + "-stolen", total(fp.ivs).Seconds(), int64(len(fp.ivs))})
	}
	cats = append(cats, []struct {
		label string
		secs  float64
		count int64
	}{
		{waitCat, total(waitPlain).Seconds(), 0},
		{CatRetransmit, total(waitRetrans).Seconds(), int64(len(waitRetrans))},
	}...)
	for _, c := range cats {
		if c.secs == 0 && c.count == 0 {
			continue
		}
		n.Children = append(n.Children, &Node{
			Label: c.label, Kind: "category", Seconds: c.secs, Count: c.count,
		})
	}
	return n
}

// subtract returns a ∖ b for merged interval sets.
func subtract(a, b []iv) []iv {
	var out []iv
	j := 0
	for _, x := range a {
		lo := x.lo
		for j < len(b) && b[j].hi <= lo {
			j++
		}
		k := j
		for k < len(b) && b[k].lo < x.hi {
			if b[k].lo > lo {
				out = append(out, iv{lo, b[k].lo})
			}
			if b[k].hi > lo {
				lo = b[k].hi
			}
			k++
		}
		if lo < x.hi {
			out = append(out, iv{lo, x.hi})
		}
	}
	return out
}

// majorityName resolves the thread holding the most run instants on a
// CPU to its task name, empty when unknown.
func majorityName(occupant map[int64]int, taskNames map[int64]string) string {
	best, bestN := int64(-1), 0
	for id, n := range occupant {
		if n > bestN || (n == bestN && id < best) {
			best, bestN = id, n
		}
	}
	if bestN == 0 {
		return ""
	}
	return taskNames[best]
}

// Aggregate averages several structurally matching run trees (the
// repetitions of one cell) into one mean tree; structure is matched by
// label path, and vertices missing from some runs average over the
// runs that have them.
func Aggregate(runs []RunAttribution) *Node {
	if len(runs) == 0 {
		return nil
	}
	agg := &Node{Label: fmt.Sprintf("mean of %d runs", len(runs)), Kind: "run", Parallel: true}
	var fold func(dst *Node, src *Node, w float64)
	fold = func(dst *Node, src *Node, w float64) {
		dst.Seconds += src.Seconds * w
		dst.Count += src.Count
		for _, sc := range src.Children {
			var dc *Node
			for _, c := range dst.Children {
				if c.Label == sc.Label {
					dc = c
					break
				}
			}
			if dc == nil {
				dc = &Node{Label: sc.Label, Kind: sc.Kind, Parallel: sc.Parallel}
				dst.Children = append(dst.Children, dc)
			}
			fold(dc, sc, w)
		}
	}
	w := 1.0 / float64(len(runs))
	for _, r := range runs {
		fold(agg, r.Tree, w)
	}
	return agg
}
