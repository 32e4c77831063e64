package partition

import (
	"errors"
	"slices"
	"sort"
)

// MergeTrace records one greedy merge performed by AssignCBIT, for reports
// and tests.
type MergeTrace struct {
	Into, From   int // pre-merge cluster IDs
	InputsBefore int // iota(O) before the merge
	InputsAfter  int // iota(O+g)
	Gain         int // Eq. (7): lk - iota(O+g)
}

// AssignCBIT performs the final greedy merging pass of Table 8 on a
// Make_Group result: small clusters are folded into larger ones while the
// merged input count stays within lk, preferring merges that maximise the
// Eq. (7) gain and, on ties, remove the most cut nets. Only clusters that
// share nets with O — plus the globally smallest cluster — can improve the
// gain, so the candidate scan is restricted to those. The result is
// modified in place and re-finalised; the merge trace is returned.
func AssignCBIT(r *Result, lk int) ([]MergeTrace, error) {
	if lk < 1 {
		return nil, errors.New("partition: lk must be >= 1")
	}
	g := r.G

	// live is a cluster being merged: its cells and its deduplicated
	// external input nets (iota is len(inputs)).
	type live struct {
		nodes  []int
		inputs []int
		id     int
		dead   bool
	}
	clusters := make([]*live, 0, len(r.Clusters))
	owner := make([]int, g.NumNodes()) // cell -> live index of its cluster
	for v := range owner {
		owner[v] = -1
	}
	readers := make([][]int, g.NumNets()) // net -> live indexes reading it
	for li, c := range r.Clusters {
		lc := &live{nodes: append([]int(nil), c.Nodes...), inputs: make([]int, 0, len(c.InputNets)), id: c.ID}
		for _, v := range c.Nodes {
			owner[v] = li
		}
		for e := range c.InputNets {
			lc.inputs = append(lc.inputs, e)
		}
		sort.Ints(lc.inputs)
		for _, e := range lc.inputs {
			readers[e] = append(readers[e], li)
		}
		clusters = append(clusters, lc)
	}

	// Per-pass marks for mergedInputs, neighbors and the merge step.
	nets, cls := newMark(g.NumNets()), newMark(len(clusters))

	// mergedInputs computes iota(a+b) and the number of cut nets the merge
	// removes, without mutating.
	mergedInputs := func(ai, bi int) (iota, removed int) {
		nets.reset()
		count := func(e int) {
			src := g.Nets[e].Source
			if g.IsCell(src) && (owner[src] == ai || owner[src] == bi) {
				removed++ // net becomes internal to the union
				return
			}
			iota++
		}
		for _, e := range clusters[ai].inputs {
			nets.add(e)
			count(e)
		}
		for _, e := range clusters[bi].inputs {
			if !nets.add(e) {
				removed++ // shared external net now counted once
				continue
			}
			count(e)
		}
		return iota, removed
	}

	// neighbors collects, in ascending order, the live cluster indexes
	// sharing a net with o, plus extra when it is >= 0.
	var cands []int
	neighbors := func(oi, extra int) []int {
		cls.reset()
		cands = cands[:0]
		add := func(i int) {
			if i >= 0 && i != oi && !clusters[i].dead && cls.add(i) {
				cands = append(cands, i)
			}
		}
		o := clusters[oi]
		for _, e := range o.inputs {
			if src := g.Nets[e].Source; g.IsCell(src) {
				add(owner[src])
			}
			for _, ri := range readers[e] {
				add(ri)
			}
		}
		for _, v := range o.nodes {
			for _, e := range g.Out[v] {
				for _, ri := range readers[e] {
					add(ri)
				}
			}
		}
		add(extra)
		sort.Ints(cands)
		return cands
	}

	// dropReader removes live index li from readers[e].
	dropReader := func(e, li int) {
		rs := readers[e]
		for k, ri := range rs {
			if ri == li {
				rs[k] = rs[len(rs)-1]
				readers[e] = rs[:len(rs)-1]
				return
			}
		}
	}

	// Extract_Max and the smallest-candidate pick both choose among the
	// unprocessed live clusters, whose inputs never change: a merge only
	// grows O, which is already processed, and kills the merged cluster.
	// So each pick walks one fixed order (by iota, lowest index first on
	// ties) from the front, skipping clusters processed or merged since.
	processed := make([]bool, len(clusters))
	gone := func(i int) bool { return clusters[i].dead || processed[i] }
	byMax := make([]int, len(clusters))
	for i := range byMax {
		byMax[i] = i
	}
	byMin := slices.Clone(byMax)
	slices.SortStableFunc(byMax, func(a, b int) int { return len(clusters[b].inputs) - len(clusters[a].inputs) })
	slices.SortStableFunc(byMin, func(a, b int) int { return len(clusters[a].inputs) - len(clusters[b].inputs) })
	var trace []MergeTrace
	var order []int

	for {
		// STEP 3.1: O = Extract_Max(S) over unprocessed live clusters.
		for len(byMax) > 0 && gone(byMax[0]) {
			byMax = byMax[1:]
		}
		if len(byMax) == 0 {
			break
		}
		oi := byMax[0]
		processed[oi] = true
		o := clusters[oi]
		order = append(order, oi)

		// STEP 3.2: merge best feasible candidate while iota(O) < lk.
		for len(o.inputs) < lk {
			// Add the globally smallest unmerged cluster: with no sharing,
			// iota(O+g) = iota(O) + iota(g), minimised by the smallest g.
			for len(byMin) > 0 && gone(byMin[0]) {
				byMin = byMin[1:]
			}
			minIdx := -1
			if len(byMin) > 0 {
				minIdx = byMin[0]
			}
			// Scan candidates in index order, so tie-breaks between equal
			// (iota, removed) candidates are deterministic.
			bestIdx, bestIota, bestRemoved := -1, 0, -1
			for _, gi := range neighbors(oi, minIdx) {
				if processed[gi] {
					continue // already emitted as a CBIT of its own
				}
				iota, removed := mergedInputs(oi, gi)
				if iota > lk { // Eq. (5) infeasible
					continue
				}
				if bestIdx < 0 || iota < bestIota || (iota == bestIota && removed > bestRemoved) {
					bestIdx, bestIota, bestRemoved = gi, iota, removed
				}
			}
			if bestIdx < 0 {
				break
			}
			gc := clusters[bestIdx]
			trace = append(trace, MergeTrace{
				Into: o.id, From: gc.id,
				InputsBefore: len(o.inputs), InputsAfter: bestIota,
				Gain: lk - bestIota,
			})
			// Merge gc into o, updating indexes: nets now driven from
			// inside o stop being inputs.
			for _, v := range gc.nodes {
				owner[v] = oi
			}
			o.nodes = append(o.nodes, gc.nodes...)
			nets.reset()
			for _, e := range o.inputs {
				nets.add(e)
			}
			for _, e := range gc.inputs {
				dropReader(e, bestIdx)
				if nets.add(e) {
					o.inputs = append(o.inputs, e)
					readers[e] = append(readers[e], oi)
				}
			}
			kept := o.inputs[:0]
			for _, e := range o.inputs {
				if src := g.Nets[e].Source; g.IsCell(src) && owner[src] == oi {
					dropReader(e, oi)
					continue
				}
				kept = append(kept, e)
			}
			o.inputs = kept
			gc.nodes, gc.inputs, gc.dead = nil, nil, true
		}
	}

	// Rebuild the Result in place, in emission order.
	outClusters := make([]*Cluster, 0, len(order))
	assign := make([]int, g.NumNodes())
	for i := range assign {
		assign[i] = -1
	}
	for _, oi := range order {
		lc := clusters[oi]
		if lc.dead {
			continue
		}
		ci := len(outClusters)
		c := &Cluster{ID: ci, Nodes: lc.nodes}
		sort.Ints(c.Nodes)
		for _, v := range c.Nodes {
			assign[v] = ci
		}
		outClusters = append(outClusters, c)
	}
	nr := finalize(g, r.SCC, outClusters, assign, r.BoundarySteps)
	nr.DFSVisits = r.DFSVisits
	nr.Resplits = r.Resplits
	nr.RefineMoves = r.RefineMoves
	*r = *nr
	return trace, nil
}
