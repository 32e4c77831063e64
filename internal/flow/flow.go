// Package flow implements the paper's modified Saturate_Network procedure
// (Table 3): probabilistic multicommodity-flow congestion estimation. Random
// source nodes inject unit flows along Dijkstra shortest-path trees; each
// net's distance grows exponentially with its accumulated flow, so congested
// nets — in particular nets inside large strongly connected components —
// acquire large d(e) values and become the preferred cut locations.
package flow

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// VisitPolicy selects how the visit(v) sampling counter of Table 3 STEP 3 is
// maintained; see DESIGN.md substitution 3.
type VisitPolicy int

const (
	// VisitTree counts every node reached by a shortest-path tree as
	// visited. This is the scalable reading (default).
	VisitTree VisitPolicy = iota
	// VisitSource counts only the randomly selected source node, the
	// literal reading of Table 3 STEP 3.1.
	VisitSource
)

// Config carries the Saturate_Network parameters. The zero value is not
// valid; use DefaultConfig.
type Config struct {
	// Capacity is b, the per-net capacity (paper: 1).
	Capacity float64
	// MinVisit is the sampling threshold (paper: 20).
	MinVisit int
	// Alpha magnifies flow differences in the distance exponent (paper: 4).
	Alpha float64
	// Delta is the flow increment per tree net (paper: 0.01).
	Delta float64
	// Seed drives the random source selection.
	Seed int64
	// Policy selects the visit bookkeeping.
	Policy VisitPolicy
	// MaxIterations caps the number of Dijkstra trees as a safety valve;
	// 0 means no cap beyond the visit criterion.
	MaxIterations int
}

// DefaultConfig returns the paper's published parameter set (section 4.1):
// b=1, min_visit=20, alpha=4, delta=0.01.
func DefaultConfig(seed int64) Config {
	return Config{Capacity: 1, MinVisit: 20, Alpha: 4, Delta: 0.01, Seed: seed, Policy: VisitTree}
}

// Validate reports the first parameter that would break Saturate's
// invariants: Capacity and Delta must be positive and finite, Alpha finite
// and non-negative (a NaN, infinite or negative value would let a distance
// fall below 1 or poison the Dijkstra comparisons), MinVisit non-negative.
func (c Config) Validate() error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	switch {
	case !finite(c.Capacity) || c.Capacity <= 0:
		return fmt.Errorf("flow: Capacity must be positive and finite (got %v)", c.Capacity)
	case !finite(c.Delta) || c.Delta <= 0:
		return fmt.Errorf("flow: Delta must be positive and finite (got %v)", c.Delta)
	case !finite(c.Alpha) || c.Alpha < 0:
		return fmt.Errorf("flow: Alpha must be non-negative and finite (got %v)", c.Alpha)
	case c.MinVisit < 0:
		return fmt.Errorf("flow: MinVisit must be >= 0 (got %d)", c.MinVisit)
	}
	return nil
}

// Result holds the saturated network state.
type Result struct {
	// D[e] is the distance/congestion index of net e (>= 1).
	D []float64
	// Flow[e] is the accumulated flow on net e.
	Flow []float64
	// Visits[v] is the visit counter per node.
	Visits []int
	// Injected[v] is the total flow injected by shortest-path trees rooted
	// at source v (delta per tree net); summing it over sources equals
	// summing Flow over nets. The paper's evaluation reports per-phase
	// iteration cost — this is the saturation phase's work, attributed to
	// the sources that caused it.
	Injected []float64
	// Trees is the number of Dijkstra trees grown.
	Trees int
}

// InjectedTotal returns the total injected flow, summed in source order so
// the float result is deterministic.
func (r *Result) InjectedTotal() float64 {
	total := 0.0
	for _, f := range r.Injected {
		total += f
	}
	return total
}

// Saturate runs the modified Saturate_Network of Table 3 on g. The context
// is checked once per shortest-path tree, so a cancelled or expired ctx
// stops the saturation loop promptly with an error wrapping ctx.Err().
func Saturate(ctx context.Context, g *graph.G, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	res := &Result{
		D:        make([]float64, g.NumNets()),
		Flow:     make([]float64, g.NumNets()),
		Visits:   make([]int, n),
		Injected: make([]float64, n),
	}
	for e := range res.D {
		res.D[e] = 1 // STEP 1.1
	}
	if n == 0 {
		return res, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// under holds nodes with visits <= MinVisit, as an index set we can
	// sample from uniformly and compact lazily.
	under := make([]int, n)
	pos := make([]int, n)
	for i := range under {
		under[i] = i
		pos[i] = i
	}
	remove := func(v int) {
		p := pos[v]
		if p < 0 {
			return
		}
		last := under[len(under)-1]
		under[p] = last
		pos[last] = p
		under = under[:len(under)-1]
		pos[v] = -1
	}
	bump := func(v int) {
		res.Visits[v]++
		if res.Visits[v] > cfg.MinVisit {
			remove(v)
		}
	}

	dj := newDijkstra(g)
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = math.MaxInt
	}
	// Every net starts at flow 0 and gains delta per tree it joins, so after
	// k increments each net holds the same float, the k-fold sum flowTab[k],
	// and the same distance dTab[k] = exp(alpha/b * flowTab[k]). uses[e]
	// counts net e's increments; the tables grow by one entry the first
	// time any net reaches a new count, so exp runs once per distinct count.
	// (alpha/b is hoisted; at the paper's b=1 it is alpha exactly.)
	invCap := cfg.Alpha / cfg.Capacity
	uses := make([]int, g.NumNets())
	flowTab, dTab := []float64{0}, []float64{1}
	for len(under) > 0 && res.Trees < maxIter { // STEP 3
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("flow: saturate after %d trees: %w", res.Trees, err)
		}
		v := under[rng.Intn(len(under))] // STEP 3.1 (random under-visited node)
		res.Trees++
		tree, reached := dj.tree(int32(v), res.D)
		switch cfg.Policy {
		case VisitSource:
			bump(v)
		default:
			bump(v)
			for _, w := range reached { // ascending node id
				if int(w) != v {
					bump(int(w))
				}
			}
		}
		for _, e := range tree { // STEP 3.3
			uses[e]++
			k := uses[e]
			if k == len(dTab) {
				f := flowTab[k-1] + cfg.Delta
				flowTab = append(flowTab, f)
				dTab = append(dTab, math.Exp(invCap*f))
			}
			res.D[e] = dTab[k]
		}
		res.Injected[v] += cfg.Delta * float64(len(tree))
		// A source with no outgoing reachability still counts as sampled,
		// which the bump above already handled.
	}
	for e, k := range uses {
		res.Flow[e] = flowTab[k]
	}
	return res, nil
}

// dijkstra is reusable scratch state for shortest-path trees over nets.
// The adjacency is flattened once into one int32 arc list with an offsets
// array, and all per-run bookkeeping is epoch-stamped, so repeated trees
// incur no per-node allocation.
type dijkstra struct {
	// arcs[arcOff[v]:arcOff[v+1]] lists, for each net e in g.Out[v] in
	// order, one arc per entry of g.Nets[e].Sinks, in order and with any
	// repeats. leaf[v] reports that v has no out-nets; a node whose out-nets
	// all lack sinks has no arcs but is not a leaf, and is still pushed.
	arcOff []int32
	arcs   []arc
	leaf   []bool

	node     []nodeRec
	netStamp []uint32 // net already added to the tree in current epoch
	cur      uint32   // even; marks a node touched, cur+1 marks it settled
	pq       distHeap
	treeBuf  []int32
	reachBuf []int32
}

// arc is one (sink, net) pin: relaxing it offers node w the distance of
// its tail plus d(e).
type arc struct{ w, e int32 }

// nodeRec holds one node's state for the current tree. mark is cur when
// the node is touched and cur+1 once it is settled (anything else is a
// stale epoch), so one load answers both tests; via is the net used to
// reach it, -1 for the source.
type nodeRec struct {
	dist float64
	mark uint32
	via  int32
}

func newDijkstra(g *graph.G) *dijkstra {
	n, pins := g.NumNodes(), 0
	for e := range g.Nets {
		pins += len(g.Nets[e].Sinks)
	}
	dj := &dijkstra{
		arcOff:   make([]int32, n+1),
		arcs:     make([]arc, 0, pins),
		leaf:     make([]bool, n),
		node:     make([]nodeRec, n),
		netStamp: make([]uint32, g.NumNets()),
	}
	for v, out := range g.Out {
		for _, e := range out {
			for _, w := range g.Nets[e].Sinks {
				dj.arcs = append(dj.arcs, arc{int32(w), int32(e)})
			}
		}
		dj.arcOff[v+1] = int32(len(dj.arcs))
		dj.leaf[v] = len(out) == 0
	}
	return dj
}

// tree grows a shortest-path tree from src using net distances d. It
// returns the reached nodes in ascending node id (src included) and the
// tree nets, the via net of each reached node taken once, in the same
// order. The returned slices are reused across calls.
//
// A node with no out-nets (a leaf) is relaxed like any other, with strict
// < on dist so that on a tie the first relaxation keeps via, but it never
// enters the heap: settling it could relax nothing, and no relaxation after
// that point could lower its distance, since the heap pops in
// nondecreasing order and every d(e) is positive.
func (dj *dijkstra) tree(src int32, d []float64) (treeNets []int32, reached []int32) {
	dj.cur += 2
	if dj.cur == 0 { // the epoch wrapped: forget every stale mark
		clear(dj.node)
		clear(dj.netStamp)
		dj.cur = 2
	}
	cur, settled := dj.cur, dj.cur+1
	node, netStamp, arcOff, arcs, leaf := dj.node, dj.netStamp, dj.arcOff, dj.arcs, dj.leaf
	node[src] = nodeRec{dist: 0, mark: cur, via: -1}
	treeNets = dj.treeBuf[:0]
	reached = dj.reachBuf[:0]
	// A leaf source reaches only itself. About a quarter of all trees start
	// at one, so skip the scan below for them.
	if leaf[src] {
		reached = append(reached, src)
		dj.reachBuf = reached
		return treeNets, reached
	}
	pq := &dj.pq
	pq.reset()
	pq.push(src, 0)
	for pq.len() > 0 {
		v := pq.pop()
		rv := &node[v]
		if rv.mark == settled {
			continue
		}
		rv.mark = settled
		dv := rv.dist
		for _, a := range arcs[arcOff[v]:arcOff[v+1]] {
			rw := &node[a.w]
			if rw.mark == settled {
				continue
			}
			ndist := dv + d[a.e]
			if rw.mark != cur || ndist < rw.dist {
				*rw = nodeRec{dist: ndist, mark: cur, via: a.e}
				if !leaf[a.w] {
					pq.push(a.w, ndist)
				}
			}
		}
	}
	// Every marked node was reached; a scan in node order is cheaper than
	// sorting, since a tree typically reaches most of the graph.
	for w := range node {
		r := &node[w]
		if r.mark&^1 != cur {
			continue
		}
		reached = append(reached, int32(w))
		if e := r.via; e >= 0 && netStamp[e] != cur {
			netStamp[e] = cur
			treeNets = append(treeNets, e)
		}
	}
	dj.treeBuf = treeNets
	dj.reachBuf = reached
	return treeNets, reached
}

// distHeap is a binary min-heap of (distance, node) pairs kept as two
// parallel slices, specialised to avoid container/heap's interface boxing
// on the hottest loop of the compiler. Among equal distances the pop order
// is decided by the heap's shape, so push compares with <= against the
// parent and pop moves the hole to the strictly smaller child, left before
// right; changing either comparison changes every compile's decisions.
type distHeap struct {
	d    []float64
	node []int32
}

func (h *distHeap) len() int { return len(h.d) }

func (h *distHeap) reset() {
	h.d = h.d[:0]
	h.node = h.node[:0]
}

func (h *distHeap) push(node int32, d float64) {
	hd := append(h.d, d)
	hn := append(h.node, node)
	h.d, h.node = hd, hn
	i := len(hd) - 1
	for i > 0 {
		p := (i - 1) / 2
		if hd[p] <= d {
			break
		}
		hd[i], hn[i] = hd[p], hn[p]
		i = p
	}
	hd[i], hn[i] = d, node
}

func (h *distHeap) pop() int32 {
	n := len(h.d) - 1
	hd, hn := h.d[:n+1], h.node[:n+1]
	top := hn[0]
	xd, xn := hd[n], hn[n]
	h.d, h.node = hd[:n], hn[:n]
	// The hole starts at the root and sinks while a child is strictly
	// smaller than xd. hd[n] still holds xd, so a left child at n-1 is
	// compared with xd in place of its missing right sibling; if xd wins,
	// xd is also below the left child and the hole stops, as it would have
	// without the comparison. The child pick is written as a 0/1 add so the
	// compiler emits a flag set instead of an unpredictable branch.
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		right := 0
		if hd[c+1] < hd[c] {
			right = 1
		}
		c += right
		if !(hd[c] < xd) {
			break
		}
		hd[i], hn[i] = hd[c], hn[c]
		i = c
	}
	hd[i], hn[i] = xd, xn
	return top
}
