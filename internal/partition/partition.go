// Package partition implements the paper's input-constraint m-way
// partitioning for PPET (section 3): Make_Group / Make_Set clustering driven
// by the Saturate_Network congestion index, the modified DFS observing the
// Eq. (6) strongly-connected-component cut budget, and the Assign_CBIT
// greedy cluster merging (Table 8).
package partition

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Cluster is one circuit segment pi_i of the m-way partition. Nodes holds
// cell node IDs; InputNets holds the net IDs feeding the cluster from
// outside (including primary-input nets), whose count is the paper's
// iota(pi_i).
type Cluster struct {
	ID        int
	Nodes     []int
	InputNets map[int]struct{}
}

// Inputs returns iota(cluster), the distinct external input net count.
func (c *Cluster) Inputs() int { return len(c.InputNets) }

// Result is a complete partition of a circuit graph's cells.
//
// The work counters below must survive every Result rebuild (the PR 5
// dropped-counter bug lived here); BoundarySteps is not listed because it
// is threaded through finalize's parameter rather than copied.
//
//obs:counters DFSVisits Resplits RefineMoves
type Result struct {
	G        *graph.G
	SCC      *graph.SCCInfo
	Clusters []*Cluster
	// Assign[v] is the cluster index of cell v, or -1 for pseudo-nodes.
	Assign []int
	// CutNets lists internal nets (source and at least one sink are cells)
	// whose source and some sink lie in different clusters.
	CutNets []int
	// CutNetsOnSCC lists the subset of CutNets internal to a nontrivial SCC.
	CutNetsOnSCC []int
	// Boundary iterations consumed by Make_Group (|d(E)| work factor).
	BoundarySteps int
	// DFSVisits counts node pops across every Make_Set traversal — the
	// clustering phase's true work measure.
	DFSVisits int
	// Resplits counts boundary lowerings that failed to disconnect a
	// violating group (the Make_Group backtrack-and-retry path).
	Resplits int
	// RefineMoves accumulates accepted boundary-refinement moves applied
	// to this partition.
	RefineMoves int
}

// NumCutNets returns the "nets cut" figure of Tables 10/11.
func (r *Result) NumCutNets() int { return len(r.CutNets) }

// NumCutNetsOnSCC returns the "cut nets on SCC" figure of Tables 10/11.
func (r *Result) NumCutNetsOnSCC() int { return len(r.CutNetsOnSCC) }

// MaxInputs returns the largest iota over clusters (0 for no clusters).
func (r *Result) MaxInputs() int {
	m := 0
	for _, c := range r.Clusters {
		if c.Inputs() > m {
			m = c.Inputs()
		}
	}
	return m
}

// Validate checks the partition invariants: every cell in exactly one
// cluster, assignment consistent, input sets correct.
func (r *Result) Validate() error {
	seen := make(map[int]int)
	for ci, c := range r.Clusters {
		for _, v := range c.Nodes {
			if !r.G.IsCell(v) {
				return fmt.Errorf("partition: cluster %d contains pseudo-node %d", ci, v)
			}
			if prev, dup := seen[v]; dup {
				return fmt.Errorf("partition: node %d in clusters %d and %d", v, prev, ci)
			}
			seen[v] = ci
			if r.Assign[v] != ci {
				return fmt.Errorf("partition: assign[%d]=%d, want %d", v, r.Assign[v], ci)
			}
		}
	}
	for _, v := range r.G.CellIDs() {
		if _, ok := seen[v]; !ok {
			return fmt.Errorf("partition: cell %d unassigned", v)
		}
	}
	for ci, c := range r.Clusters {
		want := computeInputNets(r.G, r.Assign, ci, c.Nodes)
		if len(want) != len(c.InputNets) {
			return fmt.Errorf("partition: cluster %d inputs=%d, recomputed %d", ci, len(c.InputNets), len(want))
		}
		//detlint:ordered error path only: any missing net is a correct invariant-violation witness
		for e := range want {
			if _, ok := c.InputNets[e]; !ok {
				return fmt.Errorf("partition: cluster %d missing input net %d", ci, e)
			}
		}
	}
	return nil
}

// computeInputNets returns the set of nets feeding cluster ci from outside.
func computeInputNets(g *graph.G, assign []int, ci int, nodes []int) map[int]struct{} {
	in := make(map[int]struct{})
	for _, v := range nodes {
		for _, e := range g.In[v] {
			src := g.Nets[e].Source
			if !g.IsCell(src) || assign[src] != ci {
				in[e] = struct{}{}
			}
		}
	}
	return in
}

// finalize recomputes cut-net lists and input sets from the assignment.
func finalize(g *graph.G, scc *graph.SCCInfo, clusters []*Cluster, assign []int, steps int) *Result {
	r := &Result{G: g, SCC: scc, Clusters: clusters, Assign: assign, BoundarySteps: steps}
	for ci, c := range clusters {
		c.ID = ci
		c.InputNets = computeInputNets(g, assign, ci, c.Nodes)
	}
	for e := range g.Nets {
		net := &g.Nets[e]
		if !g.IsCell(net.Source) {
			continue
		}
		srcC := assign[net.Source]
		cut := false
		hasCellSink := false
		for _, s := range net.Sinks {
			if !g.IsCell(s) {
				continue
			}
			hasCellSink = true
			if assign[s] != srcC {
				cut = true
				break
			}
		}
		if cut && hasCellSink {
			r.CutNets = append(r.CutNets, e)
			if c := scc.NetComp[e]; c >= 0 && scc.Nontrivial(c) {
				r.CutNetsOnSCC = append(r.CutNetsOnSCC, e)
			}
		}
	}
	sort.Slice(r.Clusters, func(i, j int) bool {
		return r.Clusters[i].Inputs() > r.Clusters[j].Inputs()
	})
	// Re-id after sorting (Table 4 STEP 6 sorts S by in(g) descending).
	for ci, c := range r.Clusters {
		c.ID = ci
		for _, v := range c.Nodes {
			assign[v] = ci
		}
	}
	return r
}

// mark is an epoch-stamped set over the indexes 0..n-1, which the
// clustering loops use in place of a per-pass map: reset empties it in
// O(1) by starting a new epoch, so a pass allocates nothing.
type mark struct {
	stamp []uint32
	epoch uint32
}

func newMark(n int) mark { return mark{stamp: make([]uint32, n), epoch: 1} }

// reset empties the set.
func (m *mark) reset() {
	m.epoch++
	if m.epoch == 0 { // wrapped: forget every stale stamp
		clear(m.stamp)
		m.epoch = 1
	}
}

func (m *mark) has(i int) bool { return m.stamp[i] == m.epoch }

// add inserts i and reports whether it was absent.
func (m *mark) add(i int) bool {
	if m.stamp[i] == m.epoch {
		return false
	}
	m.stamp[i] = m.epoch
	return true
}
