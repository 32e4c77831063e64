package lint

import (
	"fmt"

	"repro/internal/cbit"
	"repro/internal/graph"
	"repro/internal/retime"
)

// maxPerRule caps per-rule diagnostics on pathological inputs so a single
// systemic violation cannot flood the report.
const maxPerRule = 50

func init() {
	Register(Rule{
		ID: "PT001", Title: "input-bound", Severity: Error, Layer: LayerPartition,
		Doc:   "A cluster whose distinct external input count iota exceeds the l_k constraint of Eq. (4)-(5). Its CBIT would need more than l_k bits, breaking the 2^l_k testing-time bound of Figure 4.",
		Check: checkInputBound,
	})
	Register(Rule{
		ID: "PT002", Title: "partition-cover", Severity: Error, Layer: LayerPartition,
		Doc:   "The clusters are not a proper partition of the circuit's cells: a cell is unassigned, assigned twice, the assignment array disagrees with the membership lists, a pseudo PI/PO node leaked into a cluster (Figure 7 partitions cells only), or a cluster's recorded input nets differ from the set its assignment implies (so its iota, which PT001 bounds, is wrong).",
		Check: checkPartitionCover,
	})
	Register(Rule{
		ID: "PT003", Title: "cut-separation", Severity: Error, Layer: LayerPartition,
		Doc:   "The recorded cut-net set disagrees with the assignment: a listed net does not actually separate clusters, or a separating net is missing. Every A_CELL and the Eq. (6) budget are priced off this set.",
		Check: checkCutSeparation,
	})
	Register(Rule{
		ID: "PT004", Title: "cbit-width", Severity: Error, Layer: LayerPartition,
		Doc:   "A cluster has no standard CBIT assignment: its input count exceeds the widest Table 1 register type (d6, 32 bits), so no cascadable tester can drive it.",
		Check: checkCBITWidth,
	})
	Register(Rule{
		ID: "PT005", Title: "scc-budget", Severity: Warning, Layer: LayerPartition,
		Doc:   "A strongly connected component carries more cut nets than Beta * f(SCC), the relaxed Eq. (6) budget. Retiming can cover at most the component's register count (Corollary 2 / Eq. (7)); the excess is guaranteed multiplexed A_CELL area.",
		Check: checkSCCBudget,
	})
	Register(Rule{
		ID: "PT006", Title: "retime-illegal", Severity: Error, Layer: LayerPartition,
		Doc:   "The retiming labelling rho produces a negative edge weight, violating Corollary 3 (w(e) + rho(v) - rho(u) >= 0). The retimed circuit would need registers that do not exist; internal/verify's co-simulation rejects such labellings.",
		Check: checkRetimeLegal,
	})
	Register(Rule{
		ID: "PT007", Title: "cut-coverage", Severity: Error, Layer: LayerPartition,
		Doc:   "The solver's covered/demoted split does not exactly partition the cut-net set, so the Table 12 area accounting (0.9 DFF per covered cut, 2.3 per demoted) would price phantom or missing A_CELLs.",
		Check: checkCutCoverage,
	})
}

func netLoc(g *graph.G, e int) Loc {
	if e >= 0 && e < len(g.Nets) {
		return Loc{Object: "net " + g.Nets[e].Name}
	}
	return Loc{Object: fmt.Sprintf("net #%d", e)}
}

func clusterLoc(id int) Loc {
	return Loc{Object: fmt.Sprintf("cluster %d", id)}
}

func checkInputBound(ctx *Context) []Diagnostic {
	if ctx.LK < 1 {
		return nil
	}
	var out []Diagnostic
	for _, cl := range ctx.Partition.Clusters {
		if cl.Inputs() > ctx.LK {
			out = append(out, Diagnostic{
				Loc:        clusterLoc(cl.ID),
				Message:    fmt.Sprintf("cluster %d has %d inputs, over the l_k=%d constraint (Eq. 5)", cl.ID, cl.Inputs(), ctx.LK),
				Suggestion: "raise l_k, relax the SCC budget (Beta), or lock fewer nodes",
			})
		}
	}
	return out
}

func checkPartitionCover(ctx *Context) []Diagnostic {
	p, g := ctx.Partition, ctx.Graph
	var out []Diagnostic
	seen := make(map[int]int)
	for ci, cl := range p.Clusters {
		for _, v := range cl.Nodes {
			if v < 0 || v >= g.NumNodes() {
				out = append(out, Diagnostic{
					Loc:     clusterLoc(ci),
					Message: fmt.Sprintf("cluster %d contains out-of-range node id %d", ci, v),
				})
				continue
			}
			if !g.IsCell(v) {
				out = append(out, Diagnostic{
					Loc:     clusterLoc(ci),
					Message: fmt.Sprintf("cluster %d contains pseudo-node %q (%s)", ci, g.Nodes[v].Name, g.Nodes[v].Kind),
				})
			}
			if prev, dup := seen[v]; dup {
				out = append(out, Diagnostic{
					Loc:     clusterLoc(ci),
					Message: fmt.Sprintf("cell %q is in clusters %d and %d", g.Nodes[v].Name, prev, ci),
				})
				continue
			}
			seen[v] = ci
			if v < len(p.Assign) && p.Assign[v] != ci {
				out = append(out, Diagnostic{
					Loc:     clusterLoc(ci),
					Message: fmt.Sprintf("assignment array says cell %q is in cluster %d, membership says %d", g.Nodes[v].Name, p.Assign[v], ci),
				})
			}
		}
	}
	for _, v := range g.CellIDs() {
		if _, ok := seen[v]; !ok {
			out = append(out, Diagnostic{
				Loc:     Loc{Object: g.Nodes[v].Name},
				Message: fmt.Sprintf("cell %q belongs to no cluster", g.Nodes[v].Name),
			})
			if len(out) >= maxPerRule {
				break
			}
		}
	}
	// On a proper cover, the partition's own Validate can only fail on a
	// recorded input-net set. It indexes the assignment by every cell, so
	// a short array (PT003 reports it) skips the check.
	if len(out) == 0 && p.G != nil && len(p.Assign) >= p.G.NumNodes() {
		if err := p.Validate(); err != nil {
			out = append(out, Diagnostic{
				Message:    err.Error(),
				Suggestion: "the recorded iota is stale: recompute the cluster's input nets from the assignment",
			})
		}
	}
	return truncate(out)
}

// checkCutSeparation recomputes the cut set from the assignment and diffs
// it against the recorded lists, both directions.
func checkCutSeparation(ctx *Context) []Diagnostic {
	p, g, scc := ctx.Partition, ctx.Graph, ctx.SCC
	if len(p.Assign) < g.NumNodes() {
		return []Diagnostic{{
			Loc:     Loc{},
			Message: fmt.Sprintf("assignment array has %d entries for %d nodes", len(p.Assign), g.NumNodes()),
		}}
	}
	isCut := func(e int) bool {
		net := &g.Nets[e]
		if !g.IsCell(net.Source) {
			return false
		}
		for _, s := range net.Sinks {
			if g.IsCell(s) && p.Assign[s] != p.Assign[net.Source] {
				return true
			}
		}
		return false
	}
	recorded := make(map[int]bool, len(p.CutNets))
	var out []Diagnostic
	for _, e := range p.CutNets {
		if recorded[e] {
			d := netLoc(g, e)
			out = append(out, Diagnostic{
				Loc:     d,
				Message: fmt.Sprintf("cut net %s listed twice", d.Object),
			})
			continue
		}
		recorded[e] = true
		if e < 0 || e >= len(g.Nets) {
			out = append(out, Diagnostic{
				Loc:     netLoc(g, e),
				Message: fmt.Sprintf("cut-net id %d out of range", e),
			})
			continue
		}
		if !isCut(e) {
			out = append(out, Diagnostic{
				Loc:        netLoc(g, e),
				Message:    fmt.Sprintf("net %q is recorded as cut but does not separate clusters", g.Nets[e].Name),
				Suggestion: "the A_CELL on this net is wasted area",
			})
		}
	}
	for e := range g.Nets {
		if !recorded[e] && isCut(e) {
			out = append(out, Diagnostic{
				Loc:        netLoc(g, e),
				Message:    fmt.Sprintf("net %q separates clusters but is missing from the cut set", g.Nets[e].Name),
				Suggestion: "the segment boundary has no A_CELL: the cluster is not pseudo-exhaustively testable",
			})
			if len(out) >= maxPerRule {
				break
			}
		}
	}
	// CutNetsOnSCC must be the intra-SCC subset of CutNets.
	onSCC := make(map[int]bool, len(p.CutNetsOnSCC))
	for _, e := range p.CutNetsOnSCC {
		onSCC[e] = true
		if !recorded[e] {
			out = append(out, Diagnostic{
				Loc:     netLoc(g, e),
				Message: fmt.Sprintf("net %q is in the on-SCC cut list but not in the cut set", nameOf(g, e)),
			})
			continue
		}
		if e >= 0 && e < len(scc.NetComp) {
			if c := scc.NetComp[e]; c < 0 || !scc.Nontrivial(c) {
				out = append(out, Diagnostic{
					Loc:     netLoc(g, e),
					Message: fmt.Sprintf("net %q is in the on-SCC cut list but lies on no nontrivial SCC", nameOf(g, e)),
				})
			}
		}
	}
	for e := range recorded {
		if onSCC[e] || e < 0 || e >= len(scc.NetComp) {
			continue
		}
		if c := scc.NetComp[e]; c >= 0 && scc.Nontrivial(c) {
			out = append(out, Diagnostic{
				Loc:        netLoc(g, e),
				Message:    fmt.Sprintf("cut net %q lies on an SCC but is missing from the on-SCC list", nameOf(g, e)),
				Suggestion: "the Eq. (6) budget and Table 10 accounting undercount this component",
			})
		}
	}
	// truncate keeps the first maxPerRule entries, so the survivors must
	// be chosen in a deterministic order, not the map iteration order of
	// the loop above.
	Sort(out)
	return truncate(out)
}

func nameOf(g *graph.G, e int) string {
	if e >= 0 && e < len(g.Nets) {
		return g.Nets[e].Name
	}
	return fmt.Sprintf("#%d", e)
}

func checkCBITWidth(ctx *Context) []Diagnostic {
	var out []Diagnostic
	for _, cl := range ctx.Partition.Clusters {
		if _, ok := cbit.TypeFor(cl.Inputs()); !ok {
			out = append(out, Diagnostic{
				Loc:        clusterLoc(cl.ID),
				Message:    fmt.Sprintf("cluster %d needs a %d-bit CBIT; the widest standard type (Table 1) is %d bits", cl.ID, cl.Inputs(), cbit.StandardWidths[len(cbit.StandardWidths)-1]),
				Suggestion: "re-partition with a smaller l_k so every cluster gets a CBIT assignment",
			})
		}
	}
	return out
}

func checkSCCBudget(ctx *Context) []Diagnostic {
	p, scc := ctx.Partition, ctx.SCC
	beta := ctx.Beta
	if beta < 1 {
		beta = 1
	}
	cuts := make(map[int]int)
	for _, e := range p.CutNetsOnSCC {
		if e >= 0 && e < len(scc.NetComp) && scc.NetComp[e] >= 0 {
			cuts[scc.NetComp[e]]++
		}
	}
	var out []Diagnostic
	for comp, n := range cuts {
		budget := beta * scc.RegCount[comp]
		if n > budget {
			out = append(out, Diagnostic{
				Loc:        Loc{Object: fmt.Sprintf("scc %d", comp)},
				Message:    fmt.Sprintf("SCC %d carries %d cut nets, over its Eq. (6) budget beta*f(SCC) = %d*%d = %d", comp, n, beta, scc.RegCount[comp], budget),
				Suggestion: fmt.Sprintf("at most f(SCC)=%d cuts are retimable (Eq. 7); the rest become 2.3-DFF multiplexed A_CELLs", scc.RegCount[comp]),
			})
		}
	}
	Sort(out)
	return out
}

func checkRetimeLegal(ctx *Context) []Diagnostic {
	if ctx.Retiming == nil || ctx.CombGraph == nil {
		return nil
	}
	cg, rho := ctx.CombGraph, ctx.Retiming.Rho
	if len(rho) != len(cg.Vertices) {
		return []Diagnostic{{
			Message: fmt.Sprintf("retiming labelling has %d entries for %d vertices", len(rho), len(cg.Vertices)),
		}}
	}
	var out []Diagnostic
	for _, e := range cg.Edges {
		w := e.W + rho[e.To] - rho[e.From]
		if w >= 0 {
			continue
		}
		from, to := vertexName(cg, e.From), vertexName(cg, e.To)
		out = append(out, Diagnostic{
			Loc:        Loc{Object: fmt.Sprintf("edge %s->%s", from, to)},
			Message:    fmt.Sprintf("retimed register count on %s->%s is %d (w=%d, rho moves %d); Corollary 3 requires >= 0", from, to, w, e.W, rho[e.From]-rho[e.To]),
			Suggestion: "the labelling is illegal; re-run the difference-constraint solver",
		})
		if len(out) >= maxPerRule {
			break
		}
	}
	return truncate(out)
}

func vertexName(cg *retime.CombGraph, v int) string {
	switch v {
	case cg.SourceV:
		return "host-source"
	case cg.SinkV:
		return "host-sink"
	}
	if v >= 0 && v < len(cg.Vertices) {
		if id := cg.Vertices[v].NodeID; id >= 0 && id < cg.G.NumNodes() {
			return cg.G.Nodes[id].Name
		}
	}
	return fmt.Sprintf("v%d", v)
}

func checkCutCoverage(ctx *Context) []Diagnostic {
	if ctx.Retiming == nil {
		return nil
	}
	g := ctx.Graph
	cut := make(map[int]bool, len(ctx.Partition.CutNets))
	for _, e := range ctx.Partition.CutNets {
		cut[e] = true
	}
	var out []Diagnostic
	seen := make(map[int]string)
	note := func(e int, kind string) {
		if prev, dup := seen[e]; dup {
			out = append(out, Diagnostic{
				Loc:     netLoc(g, e),
				Message: fmt.Sprintf("cut net %q is both %s and %s in the retiming solution", nameOf(g, e), prev, kind),
			})
			return
		}
		seen[e] = kind
		if !cut[e] {
			out = append(out, Diagnostic{
				Loc:     netLoc(g, e),
				Message: fmt.Sprintf("retiming solution marks net %q as %s, but it is not a cut net", nameOf(g, e), kind),
			})
		}
	}
	for _, e := range ctx.Retiming.Covered {
		note(e, "covered")
	}
	for _, e := range ctx.Retiming.Demoted {
		note(e, "demoted")
	}
	for _, e := range ctx.Partition.CutNets {
		if _, ok := seen[e]; !ok {
			out = append(out, Diagnostic{
				Loc:        netLoc(g, e),
				Message:    fmt.Sprintf("cut net %q is neither covered nor demoted by the retiming solution", nameOf(g, e)),
				Suggestion: "Table 12 pricing would miss this A_CELL entirely",
			})
		}
	}
	return truncate(out)
}

func truncate(diags []Diagnostic) []Diagnostic {
	if len(diags) <= maxPerRule {
		return diags
	}
	kept := diags[:maxPerRule]
	kept = append(kept, Diagnostic{
		RuleID:   kept[0].RuleID,
		Severity: kept[0].Severity,
		Message:  fmt.Sprintf("... %d further findings from this rule suppressed", len(diags)-maxPerRule),
	})
	return kept
}
