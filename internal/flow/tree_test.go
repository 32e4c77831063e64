package flow

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// handGraph assembles a graph from nets given as (source, sinks...) rows;
// n is the node count.
func handGraph(n int, nets ...[]int) *graph.G {
	nodes := make([]graph.Node, n)
	for v := range nodes {
		nodes[v] = graph.Node{ID: v, Kind: graph.KindComb}
	}
	ns := make([]graph.Net, len(nets))
	for e, row := range nets {
		ns[e] = graph.Net{ID: e, Source: row[0], Sinks: row[1:]}
	}
	return graph.Assemble(nodes, ns)
}

func ones(m int) []float64 {
	d := make([]float64, m)
	for e := range d {
		d[e] = 1
	}
	return d
}

// A leaf reached at the same distance through two nets keeps the net that
// relaxed it first, whether both nets leave one node or two.
func TestTreeLeafTieKeepsFirstNet(t *testing.T) {
	// One parent: nets 0 and 1 both run 0 -> 1 at distance 1.
	dj := newDijkstra(handGraph(2, []int{0, 1}, []int{0, 1}))
	tree, reached := dj.tree(0, ones(2))
	if !slices.Equal(reached, []int32{0, 1}) || !slices.Equal(tree, []int32{0}) || dj.node[1].via != 0 {
		t.Fatalf("one parent: reached %v, tree %v, via[1] = %d; want [0 1], [0], 0", reached, tree, dj.node[1].via)
	}

	// Two parents: node 1 (dist 1) relaxes leaf 3 through net 2 at
	// 1 + 1.5; node 2 (dist 1.5) offers 1.5 + 1, the same float, later.
	g := handGraph(4, []int{0, 1}, []int{0, 2}, []int{1, 3}, []int{2, 3})
	d := []float64{1, 1.5, 1.5, 1}
	tree, reached = newDijkstra(g).tree(0, d)
	if !slices.Equal(reached, []int32{0, 1, 2, 3}) {
		t.Fatalf("two parents: reached %v", reached)
	}
	if !slices.Equal(tree, []int32{0, 1, 2}) {
		t.Fatalf("two parents: tree nets %v, want [0 1 2] (net 3 ties and loses)", tree)
	}
}

// A node whose only out-net has no sinks is not a leaf: it has no arcs,
// but it is still pushed, and the heap's shape with it decides a tie.
func TestTreeSinklessNetNodeIsPushed(t *testing.T) {
	// Net 0 runs 0 -> 1, 2, 3; net 1 leaves node 1 with no sinks; nets 2
	// and 3 carry nodes 2 and 3 to leaf 4 at the same distance. With node
	// 1 in the heap the pops after the source are 1, 3, 2, so net 3 reaches
	// node 4 first; without it they would be 2, 3 and net 2 would.
	g := handGraph(5, []int{0, 1, 2, 3}, []int{1}, []int{2, 4}, []int{3, 4})
	tree, reached := newDijkstra(g).tree(0, ones(4))
	if !slices.Equal(reached, []int32{0, 1, 2, 3, 4}) || !slices.Equal(tree, []int32{0, 3}) {
		t.Fatalf("reached %v, tree %v; want [0 1 2 3 4], [0 3]", reached, tree)
	}
}

// A source with no out-nets reaches only itself and grows no tree.
func TestTreeLeafSource(t *testing.T) {
	dj := newDijkstra(handGraph(3, []int{0, 1, 2}))
	for range 2 { // the second call runs on stale scratch state
		tree, reached := dj.tree(2, ones(1))
		if len(tree) != 0 || !slices.Equal(reached, []int32{2}) {
			t.Fatalf("leaf source: tree %v, reached %v; want [], [2]", tree, reached)
		}
	}
}

// Under VisitTree every node a tree reaches is bumped exactly once per tree,
// leaves included, even a leaf that several nets and repeated sink pins
// reach.
func TestSaturateBumpsEachReachedLeafOncePerTree(t *testing.T) {
	// Ring 0 -> 1 -> 2 -> 0; every ring node also drives leaves 3 and 4,
	// leaf 3 on two pins of one net.
	g := handGraph(5,
		[]int{0, 1, 3, 3, 4}, []int{1, 2, 3, 4}, []int{2, 0, 4}, []int{2, 3})
	cfg := DefaultConfig(5)
	cfg.MinVisit = 1 << 20 // no node leaves the sample set
	cfg.MaxIterations = 40
	res, err := Saturate(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A ring source reaches all five nodes; a leaf source only itself.
	k := res.Visits[0]
	if k == 0 || k == res.Trees || res.Visits[1] != k || res.Visits[2] != k {
		t.Fatalf("ring visits %v over %d trees: want three equal counts in (0, %d)", res.Visits[:3], res.Trees, res.Trees)
	}
	leafTrees := res.Trees - k
	if res.Visits[3] < k || res.Visits[4] < k || res.Visits[3]+res.Visits[4] != 2*k+leafTrees {
		t.Fatalf("leaf visits %v: want each >= %d and summing to %d", res.Visits[3:], k, 2*k+leafTrees)
	}
}

// bellmanFord is the reference single-source distance: +Inf where src
// cannot reach.
func bellmanFord(g *graph.G, src int, d []float64) []float64 {
	dist := make([]float64, g.NumNodes())
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[src] = 0
	for changed := true; changed; {
		changed = false
		for e, net := range g.Nets {
			du := dist[net.Source]
			for _, w := range net.Sinks {
				if du+d[e] < dist[w] {
					dist[w] = du + d[e]
					changed = true
				}
			}
		}
	}
	return dist
}

// randomGraph builds a seeded random net graph with leaves, multi-sink nets,
// repeated sink pins and tie-prone distances.
func randomGraph(rng *rand.Rand) (*graph.G, []float64) {
	n := 2 + rng.Intn(40)
	var nets [][]int
	for v := 0; v < n; v++ {
		if rng.Intn(3) == 0 {
			continue // a leaf
		}
		for range 1 + rng.Intn(3) {
			row := []int{v}
			for range 1 + rng.Intn(4) {
				row = append(row, rng.Intn(n))
			}
			nets = append(nets, row)
		}
	}
	d := make([]float64, len(nets))
	for e := range d {
		if rng.Intn(2) == 0 {
			d[e] = float64(1 + rng.Intn(3)) // ties
		} else {
			d[e] = math.Exp(4 * 0.01 * float64(rng.Intn(200)))
		}
	}
	return handGraph(n, nets...), d
}

// Property: on random graphs every tree reaches exactly the nodes with a
// finite Bellman-Ford distance, in ascending order, at that distance; each
// via net really enters its node at that distance; and the tree nets are
// exactly the via nets of the reached nodes, each once.
func TestTreeMatchesBellmanFord(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, d := randomGraph(rng)
		dj := newDijkstra(g)
		for src := 0; src < g.NumNodes(); src++ {
			ref := bellmanFord(g, src, d)
			tree, reached := dj.tree(int32(src), d)
			var want []int32
			for v, x := range ref {
				if !math.IsInf(x, 1) {
					want = append(want, int32(v))
				}
			}
			if !slices.Equal(reached, want) {
				t.Fatalf("seed %d src %d: reached %v, want %v", seed, src, reached, want)
			}
			vias := map[int32]bool{}
			for _, w := range reached {
				if dj.node[w].dist != ref[w] {
					t.Fatalf("seed %d src %d: dist[%d] = %v, Bellman-Ford %v", seed, src, w, dj.node[w].dist, ref[w])
				}
				e := dj.node[w].via
				if int(w) == src {
					if e != -1 {
						t.Fatalf("seed %d: source %d has via %d", seed, src, e)
					}
					continue
				}
				net := g.Nets[e]
				if !slices.Contains(net.Sinks, int(w)) || ref[net.Source]+d[e] != ref[w] {
					t.Fatalf("seed %d src %d: via[%d] = net %d is not a shortest entry", seed, src, w, e)
				}
				vias[e] = true
			}
			got := map[int32]bool{}
			for _, e := range tree {
				if got[e] {
					t.Fatalf("seed %d src %d: tree net %d listed twice", seed, src, e)
				}
				got[e] = true
			}
			if len(got) != len(vias) {
				t.Fatalf("seed %d src %d: tree nets %v, via nets %v", seed, src, got, vias)
			}
			for e := range vias {
				if !got[e] {
					t.Fatalf("seed %d src %d: via net %d missing from tree %v", seed, src, e, tree)
				}
			}
		}
	}
}

// A tree grown after the epoch counter wraps matches one grown by a fresh
// dijkstra, even though the scratch state still holds the marks of the
// first epochs, which the wrapped counter reuses.
func TestTreeEpochWrap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, d := randomGraph(rng)
		n := g.NumNodes()
		dj := newDijkstra(g)
		for src := 0; src < n; src++ { // leave marks at the first epochs
			dj.tree(int32(src), d)
		}
		dj.cur = math.MaxUint32 - 3 // the next tree takes the last even epoch
		for src := 0; src < n; src++ {
			for pass := range 2 { // the second pass runs after the wrap
				tree, reached := dj.tree(int32(src), d)
				ref := newDijkstra(g)
				wantTree, wantReached := ref.tree(int32(src), d)
				if !slices.Equal(tree, wantTree) || !slices.Equal(reached, wantReached) {
					t.Fatalf("seed %d src %d pass %d (cur %d): tree %v reached %v, fresh %v %v",
						seed, src, pass, dj.cur, tree, reached, wantTree, wantReached)
				}
				for _, w := range reached {
					if got, want := dj.node[w], ref.node[w]; got.dist != want.dist || got.via != want.via {
						t.Fatalf("seed %d src %d pass %d: node %d %+v, fresh %+v", seed, src, pass, w, got, want)
					}
				}
				if pass == 0 {
					dj.cur = math.MaxUint32 - 1 // the next tree wraps
				}
			}
			dj.cur = math.MaxUint32 - 3
		}
	}
}

// At a non-default Config every net's Flow is delta summed once per tree
// it joined, and its D is exp(alpha/b * Flow), bit for bit: the per-count
// tables give each net exactly what a per-net update would.
func TestSaturateTablesMatchPerNetUpdate(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.G
	}{{"s27", s27Graph(t)}, {"s510", benchGraph(t, "s510")}} {
		cfg := Config{Capacity: 2, MinVisit: 20, Alpha: 3, Delta: 0.03, Seed: 1, MaxIterations: 200}
		res, err := Saturate(context.Background(), tc.g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		maxUses := 0
		for e, f := range res.Flow {
			sum, uses := 0.0, 0
			for ; sum < f; uses++ {
				sum += cfg.Delta
			}
			if sum != f {
				t.Fatalf("%s: Flow[%d] = %v is no sum of delta = %v", tc.name, e, f, cfg.Delta)
			}
			if want := math.Exp(cfg.Alpha / cfg.Capacity * f); res.D[e] != want {
				t.Fatalf("%s: D[%d] = %v, exp(alpha/b * %v) = %v", tc.name, e, res.D[e], f, want)
			}
			maxUses = max(maxUses, uses)
		}
		if maxUses < 2 {
			t.Fatalf("%s: no net joined two trees in %d trees", tc.name, res.Trees)
		}
	}
}
