package partition

import "sort"

// Refine runs a greedy boundary-refinement pass over a finished partition
// (a light Kernighan-Lin flavour): boundary cells are tentatively moved
// into a neighbouring cluster, and the move is kept when it removes more
// cut nets than it creates while both clusters stay within the l_k input
// constraint. The paper's Assign_CBIT stops at greedy merging; this is the
// natural "further optimisation" pass its framework invites. Returns the
// number of accepted moves; the Result is re-finalised in place.
func Refine(r *Result, lk int, maxPasses int) int {
	if maxPasses <= 0 {
		maxPasses = 2
	}
	g := r.G
	assign := r.Assign

	// members[ci] lists the cells assigned to cluster ci, in no particular
	// order; pos[v] is v's index in its list, so a move is O(1).
	members := make([][]int, len(r.Clusters))
	pos := make([]int, g.NumNodes())
	for ci, c := range r.Clusters {
		members[ci] = append([]int(nil), c.Nodes...)
		for p, v := range c.Nodes {
			pos[v] = p
		}
	}
	move := func(v, to int) {
		from := assign[v]
		m := members[from]
		last := m[len(m)-1]
		m[pos[v]] = last
		pos[last] = pos[v]
		members[from] = m[:len(m)-1]
		pos[v] = len(members[to])
		members[to] = append(members[to], v)
		assign[v] = to
	}

	// Per-pass marks for iota, localCuts and neighbours.
	nets, cls := newMark(g.NumNets()), newMark(len(r.Clusters))

	iota := func(ci int) int {
		nets.reset()
		n := 0
		for _, v := range members[ci] {
			for _, e := range g.In[v] {
				src := g.Nets[e].Source
				if (!g.IsCell(src) || assign[src] != ci) && nets.add(e) {
					n++
				}
			}
		}
		return n
	}

	// localCuts counts, over the nets incident to v, how many are cut under
	// the current assignment.
	localCuts := func(v int) int {
		n := 0
		nets.reset()
		count := func(e int) {
			if !nets.add(e) {
				return
			}
			net := &g.Nets[e]
			if !g.IsCell(net.Source) {
				return
			}
			src := assign[net.Source]
			for _, s := range net.Sinks {
				if g.IsCell(s) && assign[s] != src {
					n++
					return
				}
			}
		}
		for _, e := range g.In[v] {
			count(e)
		}
		for _, e := range g.Out[v] {
			count(e)
		}
		return n
	}

	// neighbours of v: clusters adjacent through any incident net, in
	// ascending order.
	var nbuf []int
	neighbours := func(v int) []int {
		cls.reset()
		nbuf = nbuf[:0]
		add := func(w int) {
			if g.IsCell(w) && assign[w] != assign[v] && cls.add(assign[w]) {
				nbuf = append(nbuf, assign[w])
			}
		}
		for _, e := range g.In[v] {
			add(g.Nets[e].Source)
			for _, s := range g.Nets[e].Sinks {
				add(s)
			}
		}
		for _, e := range g.Out[v] {
			for _, s := range g.Nets[e].Sinks {
				add(s)
			}
		}
		sort.Ints(nbuf)
		return nbuf
	}

	moves := 0
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for _, v := range g.CellIDs() {
			from := assign[v]
			if from < 0 || len(members[from]) <= 1 {
				continue
			}
			best, bestGain := -1, 0
			before := localCuts(v)
			for _, to := range neighbours(v) {
				move(v, to) // tentative
				gain := before - localCuts(v)
				ok := gain > 0 && iota(to) <= lk && iota(from) <= lk
				move(v, from) // undo
				if ok && gain > bestGain {
					best, bestGain = to, gain
				}
			}
			if best >= 0 {
				move(v, best)
				moves++
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	if moves == 0 {
		return 0
	}

	// Rebuild the Result (drop emptied clusters).
	var newClusters []*Cluster
	for _, m := range members {
		if len(m) == 0 {
			continue
		}
		sort.Ints(m)
		newClusters = append(newClusters, &Cluster{ID: len(newClusters), Nodes: m})
	}
	newAssign := make([]int, g.NumNodes())
	for i := range newAssign {
		newAssign[i] = -1
	}
	for _, c := range newClusters {
		for _, v := range c.Nodes {
			newAssign[v] = c.ID
		}
	}
	nr := finalize(g, r.SCC, newClusters, newAssign, r.BoundarySteps)
	nr.DFSVisits = r.DFSVisits
	nr.Resplits = r.Resplits
	nr.RefineMoves = r.RefineMoves + moves
	*r = *nr
	return moves
}
