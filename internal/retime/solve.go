package retime

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// Solution is the outcome of solving for a legal retiming that places
// registers on cut nets.
//
//obs:counters
type Solution struct {
	// Rho is the retiming labelling per vertex (Lemma 1's integer-valued
	// vertex labels; host vertices included).
	Rho []int
	// Covered lists cut nets that retiming supplies with a register
	// (an existing functional DFF is moved there: 0.9 DFF overhead).
	Covered []int
	// Demoted lists cut nets the solver had to give up on to stay legal
	// (Corollary 2 would be violated): these receive a multiplexed A_CELL
	// (2.3 DFF overhead).
	Demoted []int
	// Iterations counts label-correcting solver rounds including re-solves
	// after demotions.
	Iterations int
	// Relaxations counts successful SPFA edge relaxations across every
	// pass (per-component and final global), the solver's true work
	// measure; related retiming work reports exactly this convergence
	// metric.
	Relaxations int
	// Checkpoints counts the amortised negative-cycle-detection passes the
	// SPFA runs (one every |vertices| relaxations).
	Checkpoints int
}

// Solve finds retiming labels satisfying, for every edge e = (u,v):
//
//	w(e) + rho(v) - rho(u) >= req(e)
//
// i.e. the system of difference constraints rho(u) - rho(v) <= w(e)-req(e),
// solved by a label-correcting (SPFA) shortest-path pass from a virtual
// source. When the constraint graph has a negative cycle — a circuit cycle
// whose cut requirements exceed its register count, exactly the Eq. (2)/(6)
// situation — Solve demotes enough cut requirements on that cycle to
// restore feasibility, preferring the nets with the lowest congestion
// priority, and re-solves. priority may be nil (arbitrary demotion order);
// cutNets must match the requirements previously set via SetRequirements.
//
// The context cancels the solver: it is checked on every demote-and-resolve
// round and at the label-correcting pass's amortised cycle-detection
// checkpoints, so even a single long SPFA pass aborts promptly with an
// error wrapping ctx.Err().
func Solve(ctx context.Context, cg *CombGraph, cutNets map[int]bool, priority map[int]float64) (*Solution, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cg == nil {
		return nil, errors.New("retime: nil graph")
	}
	sol := &Solution{}
	n := len(cg.Vertices)

	// Live requirement per edge, updated incrementally on demotion.
	req := make([]int, len(cg.Edges))
	edgesWithNet := make(map[int][]int) // cut net -> edges whose path holds it
	for i := range cg.Edges {
		e := &cg.Edges[i]
		for _, net := range e.PathNets {
			if cutNets[net] {
				req[i]++
				edgesWithNet[net] = append(edgesWithNet[net], i)
			}
		}
	}
	demoted := make(map[int]bool)
	demote := func(net int) {
		if demoted[net] {
			return
		}
		demoted[net] = true
		for _, ei := range edgesWithNet[net] {
			req[ei]--
		}
	}

	// Negative cycles can only live inside strongly connected components of
	// the comb graph, so the demotion search runs per component on the much
	// smaller sub-systems; the final global pass (guaranteed feasible) then
	// produces the labels.
	comps := combSCCs(cg)
	st := newSolverState(n)
	for _, comp := range comps {
		if len(comp.vertices) < 2 && len(comp.edges) == 0 {
			continue
		}
		for {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("retime: solver round %d: %w", sol.Iterations, err)
			}
			sol.Iterations++
			cycles, err := st.spfa(ctx, cg, req, comp.vertices, comp.edges)
			if err != nil {
				return nil, err
			}
			if cycles == nil {
				break
			}
			before := len(demoted)
			for _, cyc := range cycles {
				if err := demoteOnCycle(cg, req, cyc, cutNets, demoted, priority, demote); err != nil {
					return nil, err
				}
			}
			if len(demoted) == before {
				if err := forceDemoteOne(cg, cycles, cutNets, demoted, priority, demote); err != nil {
					return nil, err
				}
			}
		}
	}

	// Final global pass over all vertices and edges.
	allV := make([]int, n)
	for i := range allV {
		allV[i] = i
	}
	allE := make([]int, len(cg.Edges))
	for i := range allE {
		allE[i] = i
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("retime: solver round %d: %w", sol.Iterations, err)
		}
		sol.Iterations++
		cycles, err := st.spfa(ctx, cg, req, allV, allE)
		if err != nil {
			return nil, err
		}
		if cycles == nil {
			break
		}
		// Should be rare after per-component demotion; handle residual
		// negative cycles as a safety net.
		before := len(demoted)
		for _, cyc := range cycles {
			if err := demoteOnCycle(cg, req, cyc, cutNets, demoted, priority, demote); err != nil {
				return nil, err
			}
		}
		if len(demoted) == before {
			if err := forceDemoteOne(cg, cycles, cutNets, demoted, priority, demote); err != nil {
				return nil, err
			}
		}
	}
	sol.Rho = make([]int, n)
	for i := range sol.Rho {
		sol.Rho[i] = st.dist[i]
	}
	sol.Relaxations = st.relaxations
	sol.Checkpoints = st.checkpoints
	for net := range cutNets {
		if demoted[net] {
			sol.Demoted = append(sol.Demoted, net)
		} else {
			sol.Covered = append(sol.Covered, net)
		}
	}
	sort.Ints(sol.Covered)
	sort.Ints(sol.Demoted)
	return sol, nil
}

// solverState is reusable SPFA scratch space.
type solverState struct {
	dist     []int
	predEdge []int
	inQueue  []bool
	queue    []int
	color    []int // pred-graph cycle detection scratch
	stamp    int

	// relaxations and checkpoints accumulate across every spfa call of one
	// Solve, surfaced on Solution for the metrics layer.
	relaxations int
	checkpoints int
}

func newSolverState(n int) *solverState {
	return &solverState{
		dist:     make([]int, n),
		predEdge: make([]int, n),
		inQueue:  make([]bool, n),
		color:    make([]int, n),
	}
}

// spfa runs the label-correcting pass over the given vertex/edge subset.
// Constraint: for each edge u->v, rho(u) - rho(v) <= w - req, i.e. a
// constraint-graph arc To -> From with that weight. A negative cycle shows
// up as a cycle in the predecessor graph; the pass checks for those every
// |vertices| relaxations (the classic amortised Bellman-Ford detection)
// and, when found, returns all vertex-disjoint predecessor cycles as edge
// lists. A nil cycle set with a nil error means the system is feasible
// (distances in st.dist). ctx is polled at the same amortised checkpoints,
// so cancellation costs nothing on the relaxation fast path.
func (st *solverState) spfa(ctx context.Context, cg *CombGraph, req []int, vertices, edges []int) ([][]int, error) {
	byTo := make(map[int][]int, len(vertices))
	for _, ei := range edges {
		byTo[cg.Edges[ei].To] = append(byTo[cg.Edges[ei].To], ei)
	}
	for _, v := range vertices {
		st.dist[v] = 0
		st.predEdge[v] = -1
		st.inQueue[v] = true
	}
	st.queue = append(st.queue[:0], vertices...)
	relaxations, nextCheck := 0, len(vertices)
	defer func() { st.relaxations += relaxations }()
	for len(st.queue) > 0 {
		v := st.queue[0]
		st.queue = st.queue[1:]
		st.inQueue[v] = false
		for _, ei := range byTo[v] {
			e := &cg.Edges[ei]
			c := e.W - req[ei]
			if st.dist[v]+c < st.dist[e.From] {
				st.dist[e.From] = st.dist[v] + c
				st.predEdge[e.From] = ei
				relaxations++
				if !st.inQueue[e.From] {
					st.inQueue[e.From] = true
					st.queue = append(st.queue, e.From)
				}
			}
		}
		if relaxations >= nextCheck {
			nextCheck = relaxations + len(vertices)
			st.checkpoints++
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("retime: solver after %d relaxations: %w", relaxations, err)
			}
			if cycles := st.predCycles(cg, vertices); len(cycles) > 0 {
				return cycles, nil
			}
		}
	}
	// Queue drained: every constraint is satisfied, so the system is
	// feasible (a residual predecessor cycle could only be zero-weight).
	return nil, nil
}

// predCycles finds all vertex-disjoint cycles in the predecessor graph; a
// predecessor cycle certifies a negative cycle in the constraint graph.
func (st *solverState) predCycles(cg *CombGraph, vertices []int) [][]int {
	st.stamp++
	base := st.stamp
	var cycles [][]int
	for _, start := range vertices {
		if st.color[start] >= base {
			continue
		}
		// Walk pred chain marking with a per-walk stamp.
		st.stamp++
		walk := st.stamp
		v := start
		for {
			if st.color[v] >= base && st.color[v] != walk {
				break // merged into an already-explored walk
			}
			if st.color[v] == walk {
				// Found a cycle: collect its edges.
				var cyc []int
				u := v
				for {
					ei := st.predEdge[u]
					cyc = append(cyc, ei)
					u = cg.Edges[ei].To
					if u == v {
						break
					}
					// Re-mark so later walks skip the cycle interior.
					st.color[u] = base
				}
				cycles = append(cycles, cyc)
				break
			}
			st.color[v] = walk
			ei := st.predEdge[v]
			if ei < 0 {
				break
			}
			v = cg.Edges[ei].To
		}
		// Downgrade walk marks to base so they read as visited.
		u := start
		for st.color[u] == walk {
			st.color[u] = base
			ei := st.predEdge[u]
			if ei < 0 {
				break
			}
			u = cg.Edges[ei].To
		}
	}
	return cycles
}

// demoteOnCycle demotes enough live cut requirements on the cycle to lift
// its constraint weight to nonnegative, lowest priority first.
func demoteOnCycle(cg *CombGraph, req []int, cycleEdges []int, cutNets, demoted map[int]bool, priority map[int]float64, demote func(int)) error {
	cycleWeight := 0
	for _, ei := range cycleEdges {
		cycleWeight += cg.Edges[ei].W
	}
	type cand struct {
		net int
		pri float64
	}
	var cands []cand
	seen := make(map[int]bool)
	liveReq := 0
	for _, ei := range cycleEdges {
		for _, net := range cg.Edges[ei].PathNets {
			if !cutNets[net] {
				continue
			}
			if !demoted[net] {
				liveReq++
			}
			if !demoted[net] && !seen[net] {
				seen[net] = true
				p := 0.0
				if priority != nil {
					p = priority[net]
				}
				cands = append(cands, cand{net, p})
			}
		}
	}
	need := liveReq - cycleWeight // demotions needed to reach sum >= 0
	if need < 1 {
		// An earlier demotion in this batch already fixed the cycle.
		return nil
	}
	if len(cands) == 0 {
		return errors.New("retime: negative cycle without demotable cut requirement (register-free cycle?)")
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].pri < cands[j].pri })
	for i := 0; i < len(cands) && need > 0; i++ {
		demote(cands[i].net)
		need--
	}
	return nil
}

// forceDemoteOne guarantees progress when a detected batch resolved to no
// demotions (stale predecessor state): it demotes the lowest-priority live
// cut requirement found anywhere on the reported cycles.
func forceDemoteOne(cg *CombGraph, cycles [][]int, cutNets, demoted map[int]bool, priority map[int]float64, demote func(int)) error {
	bestNet, bestPri := -1, 0.0
	for _, cyc := range cycles {
		for _, ei := range cyc {
			for _, net := range cg.Edges[ei].PathNets {
				if !cutNets[net] || demoted[net] {
					continue
				}
				p := 0.0
				if priority != nil {
					p = priority[net]
				}
				if bestNet < 0 || p < bestPri {
					bestNet, bestPri = net, p
				}
			}
		}
	}
	if bestNet < 0 {
		return errors.New("retime: negative cycle without demotable cut requirement (register-free cycle?)")
	}
	demote(bestNet)
	return nil
}

// sccComp is one strongly connected component of the comb graph.
type sccComp struct {
	vertices []int
	edges    []int // edges with both endpoints in the component
}

// combSCCs computes the SCCs of the comb graph (iterative Tarjan over
// From->To arcs) and returns the nontrivial ones with their internal edges.
func combSCCs(cg *CombGraph) []sccComp {
	n := len(cg.Vertices)
	out := make([][]int, n)
	for i := range cg.Edges {
		out[cg.Edges[i].From] = append(out[cg.Edges[i].From], i)
	}
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}
	var stack []int
	next, nComp := 0, 0
	type frame struct{ v, ei int }
	var frames []frame
	push := func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		frames = append(frames, frame{v: v})
	}
	var members [][]int
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		push(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			advanced := false
			for f.ei < len(out[f.v]) {
				e := &cg.Edges[out[f.v][f.ei]]
				f.ei++
				w := e.To
				if index[w] == unvisited {
					push(w)
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
			}
			if advanced {
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				var ms []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					ms = append(ms, w)
					if w == v {
						break
					}
				}
				members = append(members, ms)
				nComp++
			}
		}
	}
	selfLoop := make([]bool, n)
	for ei := range cg.Edges {
		if cg.Edges[ei].From == cg.Edges[ei].To {
			selfLoop[cg.Edges[ei].From] = true
		}
	}
	var comps []sccComp
	idxOf := make(map[int]int)
	for ci, ms := range members {
		if len(ms) > 1 || selfLoop[ms[0]] {
			idxOf[ci] = len(comps)
			comps = append(comps, sccComp{vertices: ms})
		}
	}
	for ei := range cg.Edges {
		e := &cg.Edges[ei]
		if comp[e.From] == comp[e.To] {
			if k, ok := idxOf[comp[e.From]]; ok {
				comps[k].edges = append(comps[k].edges, ei)
			}
		}
	}
	return comps
}

// CoverageBySCC is the coarse per-component register bound implied by
// Eq. (6) at beta=1: within each nontrivial SCC, existing flip-flops cover
// at most f(SCC) cut nets; the excess needs multiplexed A_CELLs. It is not
// the paper's accounting: the per-cycle Corollary 2 condition that Solve
// enforces can cover more cuts than f(SCC) (retiming may add registers on
// paths while preserving every cycle's count) or fewer (one cycle may hold
// too few registers), so the two disagree in both directions. Pricing
// always runs Solve; this count is BenchmarkAblationSolverVsSCCBound's
// reference.
//
// cutsPerSCC maps component id -> number of cut nets in it; regsPerSCC maps
// component id -> f(SCC). offSCCCuts is the number of cut nets outside
// nontrivial SCCs (always coverable: Lemma 1 with a free host boundary).
func CoverageBySCC(cutsPerSCC, regsPerSCC map[int]int, offSCCCuts int) (covered, excess int) {
	covered = offSCCCuts
	for c, cuts := range cutsPerSCC {
		regs := regsPerSCC[c]
		if cuts <= regs {
			covered += cuts
		} else {
			covered += regs
			excess += cuts - regs
		}
	}
	return covered, excess
}
