package partition

import (
	"errors"
	"sort"

	"repro/internal/graph"
)

// Options configures Make_Group (paper Tables 4-7).
type Options struct {
	// LK is the input-size constraint l_k (kappa in Eq. 5).
	LK int
	// Beta is the Eq. (6) SCC cut-budget multiplier (paper uses 50 to
	// effectively relax the constraint). Beta >= 1.
	Beta int
	// Locked marks node IDs the clusterer must not work on (Table 5 STEP
	// 2.1); locked nodes form singleton clusters. May be nil.
	Locked map[int]bool
}

// MakeGroup clusters the cells of g into groups with iota(group) <= LK by
// progressively removing the most congested nets (Table 4): the sorted
// stack of distinct d(e) values is walked from the maximum down, and each
// group that still violates the input constraint is re-split at the next
// boundary that actually removes one of its nets. d is the Saturate_Network
// distance per net and is consumed destructively (the SCC-budget rule of
// Table 7 STEP 2.1.2.1 zeroes entries).
func MakeGroup(g *graph.G, scc *graph.SCCInfo, d []float64, opt Options) (*Result, error) {
	if opt.LK < 1 {
		return nil, errors.New("partition: LK must be >= 1")
	}
	if opt.Beta < 1 {
		return nil, errors.New("partition: Beta must be >= 1")
	}
	if len(d) != g.NumNets() {
		return nil, errors.New("partition: distance vector length mismatch")
	}
	st := &groupState{
		g:       g,
		scc:     scc,
		d:       d,
		opt:     opt,
		cut:     make([]bool, g.NumNets()),
		cSCC:    make([]int, scc.NumComponents()),
		inList:  newMark(g.NumNodes()),
		visited: newMark(g.NumNodes()),
		nets:    newMark(g.NumNets()),
	}
	st.initSCCBudget()

	cells := make([]int, 0, g.NumNodes())
	for _, v := range g.CellIDs() {
		if !opt.Locked[v] {
			cells = append(cells, v)
		}
	}

	steps, resplits := 0, 0
	var final []*Cluster
	// Initial Make_Set at the maximum boundary (Table 4 STEP 4).
	b0 := st.maxUncutD(cells)
	var queue []*Cluster
	if b0 > 0 {
		st.applySCCBudget(b0)
		queue = st.makeSet(cells, b0)
		steps++
	} else {
		queue = st.makeSet(cells, 0)
		steps++
	}

	// Table 4 STEP 5: split every violating group at its next effective
	// boundary until the input constraint holds or no cuttable net remains.
	for len(queue) > 0 {
		grp := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if st.inputsOf(grp.Nodes) <= opt.LK {
			final = append(final, grp)
			continue
		}
		b := st.maxUncutD(grp.Nodes)
		if b <= 0 {
			// No removable net left (single cell with large fanin, or the
			// SCC budget forbids further cuts): accept the violation; the
			// caller sees MaxInputs() > LK and can relax Beta or LK.
			final = append(final, grp)
			continue
		}
		steps++
		st.applySCCBudget(b)
		parts := st.makeSet(grp.Nodes, b)
		if len(parts) == 1 && len(parts[0].Nodes) == len(grp.Nodes) {
			// The cut didn't disconnect anything yet; keep lowering.
			resplits++
			queue = append(queue, parts[0])
			continue
		}
		queue = append(queue, parts...)
	}

	// Locked nodes become singleton clusters.
	for _, v := range g.CellIDs() {
		if opt.Locked[v] {
			final = append(final, &Cluster{Nodes: []int{v}})
		}
	}
	assign := make([]int, g.NumNodes())
	for i := range assign {
		assign[i] = -1
	}
	for ci, c := range final {
		for _, v := range c.Nodes {
			assign[v] = ci
		}
	}
	r := finalize(g, scc, final, assign, steps)
	r.DFSVisits = st.visits
	r.Resplits = resplits
	return r, nil
}

type groupState struct {
	g    *graph.G
	scc  *graph.SCCInfo
	d    []float64
	opt  Options
	cut  []bool // net marked as removed
	cSCC []int  // c(SCC): cuts consumed per component

	// visits counts node pops across every makeSet traversal.
	visits int

	// Per-pass marks for makeSet and inputsOf.
	inList, visited, nets mark
	stack                 []int

	// Incremental Eq. (6) machinery: per nontrivial component, its intra
	// nets sorted by initial d descending, and a pointer to the first
	// unresolved net. minBoundary is the lowest boundary processed so far;
	// all candidate nets with d >= minBoundary are already resolved
	// (admitted against the budget or zeroed).
	sccSorted    [][]int
	sccPtr       []int
	minBoundary  float64
	budgetInited bool
}

// cuttable reports whether net e may ever be removed: its source and at
// least one sink are real cells.
func cuttable(g *graph.G, e int) bool {
	net := &g.Nets[e]
	if !g.IsCell(net.Source) {
		return false
	}
	for _, s := range net.Sinks {
		if g.IsCell(s) {
			return true
		}
	}
	return false
}

func (st *groupState) initSCCBudget() {
	n := st.scc.NumComponents()
	st.sccSorted = make([][]int, n)
	st.sccPtr = make([]int, n)
	for comp := 0; comp < n; comp++ {
		if !st.scc.Nontrivial(comp) {
			continue
		}
		nets := make([]int, 0, len(st.scc.IntraNets[comp]))
		for _, e := range st.scc.IntraNets[comp] {
			if cuttable(st.g, e) {
				nets = append(nets, e)
			}
		}
		sort.Slice(nets, func(i, j int) bool { return st.d[nets[i]] > st.d[nets[j]] })
		st.sccSorted[comp] = nets
	}
	st.minBoundary = 0
	st.budgetInited = false
}

// applySCCBudget enforces Eq. (6) for all boundaries down to the given one:
// within each nontrivial SCC, candidate nets with d >= boundary are
// admitted in descending congestion order until c(SCC) reaches
// Beta*f(SCC); the rest get d(e)=0 permanently (Table 7 STEP 2.1.2.1), so
// the SCC remainder can never be cut. Each net is resolved exactly once
// across the whole run.
func (st *groupState) applySCCBudget(boundary float64) {
	if st.budgetInited && boundary >= st.minBoundary {
		return
	}
	st.minBoundary = boundary
	st.budgetInited = true
	for comp := range st.sccSorted {
		nets := st.sccSorted[comp]
		budget := st.opt.Beta * st.scc.RegCount[comp]
		p := st.sccPtr[comp]
		for p < len(nets) {
			e := nets[p]
			if st.d[e] < boundary {
				break
			}
			p++
			if st.cut[e] || st.d[e] == 0 {
				continue
			}
			if st.cSCC[comp] < budget {
				st.cSCC[comp]++ // Table 7 STEP 2.1.1: admit the cut.
			} else {
				st.d[e] = 0 // budget exhausted: net becomes uncuttable.
			}
		}
		st.sccPtr[comp] = p
	}
}

// maxUncutD returns the largest live distance among cuttable internal nets
// of the node set (0 when none remain).
func (st *groupState) maxUncutD(nodes []int) float64 {
	max := 0.0
	for _, v := range nodes {
		for _, e := range st.g.Out[v] {
			if st.cut[e] || st.d[e] <= max || st.d[e] == 0 {
				continue
			}
			if cuttable(st.g, e) {
				max = st.d[e]
			}
		}
	}
	return max
}

// makeSet partitions the given node list into connected groups, treating
// every internal net with current d(e) >= boundary as removed (Table 5/6/7).
// Traversal is undirected over surviving nets; removed nets are recorded in
// st.cut.
func (st *groupState) makeSet(list []int, boundary float64) []*Cluster {
	st.inList.reset()
	st.visited.reset()
	for _, v := range list {
		st.inList.add(v)
	}
	isCutNow := func(e int) bool {
		if st.cut[e] {
			return true
		}
		if boundary <= 0 {
			return false
		}
		if !cuttable(st.g, e) {
			return false
		}
		if st.d[e] >= boundary && st.d[e] > 0 {
			st.cut[e] = true
			return true
		}
		return false
	}
	// join queues w when it belongs to the list and is not yet visited.
	join := func(w int) {
		if st.inList.has(w) && st.visited.add(w) {
			st.stack = append(st.stack, w)
		}
	}

	var out []*Cluster
	for _, seed := range list {
		if !st.visited.add(seed) {
			continue
		}
		cl := &Cluster{}
		st.stack = append(st.stack[:0], seed)
		for len(st.stack) > 0 {
			v := st.stack[len(st.stack)-1]
			st.stack = st.stack[:len(st.stack)-1]
			st.visits++
			cl.Nodes = append(cl.Nodes, v)
			// Forward branches.
			for _, e := range st.g.Out[v] {
				if isCutNow(e) {
					continue
				}
				for _, w := range st.g.Nets[e].Sinks {
					join(w)
				}
			}
			// Backward via driving nets (undirected connectivity: a group
			// is a set of cells joined by surviving nets).
			for _, e := range st.g.In[v] {
				src := st.g.Nets[e].Source
				if !st.g.IsCell(src) || isCutNow(e) {
					continue
				}
				join(src)
				// Sibling sinks of the same surviving net are also joined.
				for _, w := range st.g.Nets[e].Sinks {
					join(w)
				}
			}
		}
		sort.Ints(cl.Nodes)
		out = append(out, cl)
	}
	return out
}

// inputsOf computes iota over an ad-hoc node set (used mid-search, before a
// final assignment exists).
func (st *groupState) inputsOf(nodes []int) int {
	member := &st.inList
	member.reset()
	st.nets.reset()
	for _, v := range nodes {
		member.add(v)
	}
	n := 0
	for _, v := range nodes {
		for _, e := range st.g.In[v] {
			src := st.g.Nets[e].Source
			if (!st.g.IsCell(src) || !member.has(src)) && st.nets.add(e) {
				n++
			}
		}
	}
	return n
}

// MaxFanin returns the largest cell fanin in g: Make_Group can always reach
// iota <= LK when LK >= MaxFanin (paper section 3.1).
func MaxFanin(g *graph.G) int {
	m := 0
	for v := range g.Nodes {
		if !g.IsCell(v) {
			continue
		}
		if len(g.In[v]) > m {
			m = len(g.In[v])
		}
	}
	return m
}
