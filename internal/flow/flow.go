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
	// The distance exponent's argument is alpha/b * flow; alpha and b are
	// loop constants, so hoist the quotient out of the per-edge update
	// (at the paper's b=1 this also keeps the float sequence — and hence
	// the goldens — bit-identical, since x/1 == x).
	invCap := cfg.Alpha / cfg.Capacity
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
			res.Flow[e] += cfg.Delta
			res.D[e] = math.Exp(invCap * res.Flow[e])
		}
		res.Injected[v] += cfg.Delta * float64(len(tree))
		// A source with no outgoing reachability still counts as sampled,
		// which the bump above already handled.
	}
	return res, nil
}

// dijkstra is reusable scratch state for shortest-path trees over nets.
// The adjacency is flattened once into int32 CSR arrays (one flat array per
// relation plus an offsets array), and all per-run bookkeeping uses
// epoch-stamped arrays, so repeated trees incur no per-node allocation.
type dijkstra struct {
	// outNets[outOff[v]:outOff[v+1]] is g.Out[v]; sinks[sinkOff[e]:sinkOff[e+1]]
	// is g.Nets[e].Sinks, in the same order and with any repeats.
	outOff, outNets []int32
	sinkOff, sinks  []int32

	dist     []float64
	via      []int32  // net used to reach node, -1 for source/unreached
	stamp    []uint32 // node touched in current epoch
	done     []uint32 // node settled in current epoch
	netStamp []uint32 // net already added to the tree in current epoch
	cur      uint32
	pq       distHeap
	treeBuf  []int32
	reachBuf []int32
}

func newDijkstra(g *graph.G) *dijkstra {
	n, m := g.NumNodes(), g.NumNets()
	dj := &dijkstra{
		outOff:   make([]int32, n+1),
		sinkOff:  make([]int32, m+1),
		dist:     make([]float64, n),
		via:      make([]int32, n),
		stamp:    make([]uint32, n),
		done:     make([]uint32, n),
		netStamp: make([]uint32, m),
	}
	for v, out := range g.Out {
		for _, e := range out {
			dj.outNets = append(dj.outNets, int32(e))
		}
		dj.outOff[v+1] = int32(len(dj.outNets))
	}
	for e := range g.Nets {
		for _, w := range g.Nets[e].Sinks {
			dj.sinks = append(dj.sinks, int32(w))
		}
		dj.sinkOff[e+1] = int32(len(dj.sinks))
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
	dj.cur++
	if dj.cur == 0 { // the epoch wrapped: forget every stale stamp
		clear(dj.stamp)
		clear(dj.done)
		clear(dj.netStamp)
		dj.cur = 1
	}
	cur := dj.cur
	dist, via, stamp, done, netStamp := dj.dist, dj.via, dj.stamp, dj.done, dj.netStamp
	outOff, outNets, sinkOff, sinks := dj.outOff, dj.outNets, dj.sinkOff, dj.sinks
	dist[src] = 0
	via[src] = -1
	stamp[src] = cur
	treeNets = dj.treeBuf[:0]
	reached = dj.reachBuf[:0]
	// A leaf source reaches only itself. About a quarter of all trees start
	// at one, so skip the scan below for them.
	if outOff[src] == outOff[src+1] {
		reached = append(reached, src)
		dj.reachBuf = reached
		return treeNets, reached
	}
	pq := &dj.pq
	pq.reset()
	pq.push(src, 0)
	for pq.len() > 0 {
		v := pq.pop()
		if done[v] == cur {
			continue
		}
		done[v] = cur
		dv := dist[v]
		for _, e := range outNets[outOff[v]:outOff[v+1]] {
			ndist := dv + d[e]
			for _, w := range sinks[sinkOff[e]:sinkOff[e+1]] {
				if done[w] == cur {
					continue
				}
				if stamp[w] != cur || ndist < dist[w] {
					stamp[w] = cur
					dist[w] = ndist
					via[w] = e
					if outOff[w] != outOff[w+1] {
						pq.push(w, ndist)
					}
				}
			}
		}
	}
	// Every stamped node was reached; a scan in node order is cheaper than
	// sorting, since a tree typically reaches most of the graph.
	for w, s := range stamp {
		if s != cur {
			continue
		}
		reached = append(reached, int32(w))
		if e := via[w]; e >= 0 && netStamp[e] != cur {
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
