package flow

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/netlist"
)

const s27 = `
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
`

func s27Graph(t *testing.T) *graph.G {
	t.Helper()
	c, err := netlist.ParseBenchString("s27", s27)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSaturateBasics(t *testing.T) {
	g := s27Graph(t)
	res, err := Saturate(context.Background(), g, DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.D) != g.NumNets() || len(res.Flow) != g.NumNets() {
		t.Fatal("result vectors wrong length")
	}
	for e, d := range res.D {
		if d < 1 {
			t.Fatalf("d[%d] = %v < 1", e, d)
		}
		want := math.Exp(4 * res.Flow[e] / 1)
		if res.Flow[e] > 0 && math.Abs(d-want) > 1e-9 {
			t.Fatalf("d[%d] = %v, want exp(alpha*flow) = %v", e, d, want)
		}
		if res.Flow[e] == 0 && d != 1 {
			t.Fatalf("unflowed net %d has d = %v", e, d)
		}
	}
	if res.Trees == 0 {
		t.Fatal("no trees grown")
	}
	// Visit criterion: every node sampled beyond MinVisit.
	for v, n := range res.Visits {
		if n <= 20 {
			t.Fatalf("node %d visited %d <= min_visit", v, n)
		}
	}
}

func TestSaturateDeterministic(t *testing.T) {
	g := s27Graph(t)
	a, err := Saturate(context.Background(), g, DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Saturate(context.Background(), g, DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	for e := range a.D {
		if a.D[e] != b.D[e] {
			t.Fatalf("nondeterministic: d[%d] %v vs %v", e, a.D[e], b.D[e])
		}
	}
	c, err := Saturate(context.Background(), g, DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for e := range a.D {
		if a.D[e] != c.D[e] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical flows (suspicious)")
	}
}

func TestSaturateSCCNetsMoreCongested(t *testing.T) {
	// Paper Figure 5: nets in big SCCs attract more flow than peripheral
	// nets. Compare mean flow on intra-SCC nets vs others.
	g := s27Graph(t)
	info := g.SCC()
	res, err := Saturate(context.Background(), g, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	var sccSum, otherSum float64
	var sccN, otherN int
	for e := range res.Flow {
		if c := info.NetComp[e]; c >= 0 && info.Nontrivial(c) {
			sccSum += res.Flow[e]
			sccN++
		} else {
			otherSum += res.Flow[e]
			otherN++
		}
	}
	if sccN == 0 || otherN == 0 {
		t.Skip("degenerate structure")
	}
	if sccSum/float64(sccN) <= otherSum/float64(otherN) {
		t.Fatalf("SCC nets not more congested: scc=%.4f other=%.4f",
			sccSum/float64(sccN), otherSum/float64(otherN))
	}
}

func TestSaturateVisitSource(t *testing.T) {
	g := s27Graph(t)
	cfg := DefaultConfig(1)
	cfg.Policy = VisitSource
	cfg.MinVisit = 2 // keep the literal policy cheap
	res, err := Saturate(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Under the literal policy every node is picked MinVisit+1 times.
	for v, n := range res.Visits {
		if n != 3 {
			t.Fatalf("node %d visited %d, want exactly 3", v, n)
		}
	}
	if res.Trees != 3*g.NumNodes() {
		t.Fatalf("trees = %d, want %d", res.Trees, 3*g.NumNodes())
	}
}

func TestSaturateMaxIterations(t *testing.T) {
	g := s27Graph(t)
	cfg := DefaultConfig(1)
	cfg.MaxIterations = 5
	res, err := Saturate(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trees != 5 {
		t.Fatalf("trees = %d, want 5", res.Trees)
	}
}

// Every invalid config is rejected by Validate and by Saturate, before any
// work, with an error naming the field. NaN, infinite or negative values
// would let a distance fall below 1 or poison the Dijkstra comparisons.
func TestSaturateInvalidConfig(t *testing.T) {
	g := s27Graph(t)
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		field string
		edit  func(*Config)
	}{
		{"Capacity", func(c *Config) { c.Capacity = 0 }},
		{"Capacity", func(c *Config) { c.Capacity = -1 }},
		{"Capacity", func(c *Config) { c.Capacity = nan }},
		{"Capacity", func(c *Config) { c.Capacity = inf }},
		{"Delta", func(c *Config) { c.Delta = 0 }},
		{"Delta", func(c *Config) { c.Delta = -0.01 }},
		{"Delta", func(c *Config) { c.Delta = nan }},
		{"Delta", func(c *Config) { c.Delta = inf }},
		{"Delta", func(c *Config) { c.Delta = -inf }},
		{"Alpha", func(c *Config) { c.Alpha = -4 }},
		{"Alpha", func(c *Config) { c.Alpha = nan }},
		{"Alpha", func(c *Config) { c.Alpha = inf }},
		{"Alpha", func(c *Config) { c.Alpha = -inf }},
		{"MinVisit", func(c *Config) { c.MinVisit = -1 }},
	}
	for _, tc := range bad {
		cfg := DefaultConfig(1)
		tc.edit(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("config %+v: Validate() = %v, want an error naming %s", cfg, err, tc.field)
		}
		if _, err := Saturate(context.Background(), g, cfg); err == nil {
			t.Errorf("config %+v accepted by Saturate", cfg)
		}
	}
	// Alpha = 0 is the one zero that stays valid: every distance stays 1.
	cfg := DefaultConfig(1)
	cfg.Alpha = 0
	res, err := Saturate(context.Background(), g, cfg)
	if err != nil {
		t.Fatalf("alpha=0 rejected: %v", err)
	}
	for e, d := range res.D {
		if d != 1 {
			t.Fatalf("alpha=0: D[%d] = %v, want 1", e, d)
		}
	}
}

func TestSaturateEmptyGraph(t *testing.T) {
	c := netlist.New("empty")
	g, err := graph.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Saturate(context.Background(), g, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trees != 0 {
		t.Fatal("trees grown on empty graph")
	}
}

// Property: total flow equals Delta times the number of (tree, net) pairs,
// i.e. flow is conserved in units of Delta.
func TestSaturateFlowQuantised(t *testing.T) {
	g := s27Graph(t)
	f := func(seed int64) bool {
		cfg := DefaultConfig(seed)
		cfg.MaxIterations = 50
		res, err := Saturate(context.Background(), g, cfg)
		if err != nil {
			return false
		}
		for _, fl := range res.Flow {
			q := fl / cfg.Delta
			if math.Abs(q-math.Round(q)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSaturateS27 exercises the full Saturate loop — tree growth plus
// the per-use-count distance updates — on the s27 net graph.
func BenchmarkSaturateS27(b *testing.B) {
	c, err := netlist.ParseBenchString("s27", s27)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.FromCircuit(c)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.MaxIterations = 200
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Saturate(context.Background(), g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDistHeapTieOrder pins the pop order of the Dijkstra heap, ties
// included. Among equal distances the order falls out of the heap's shape,
// and every net starts at D = 1, so ties decide which tree net reaches a
// node first; the sequence below was recorded from the compiler's original
// array-of-structs heap.
func TestDistHeapTieOrder(t *testing.T) {
	ds := []float64{1, 1, 2, 1, 0.5, 1, 2, 1, 1, 3, 0.5, 1, 2, 2, 1, 1}
	var h distHeap
	var got []int32
	for i, d := range ds {
		h.push(int32(i), d)
		if i%5 == 4 {
			got = append(got, h.pop())
		}
	}
	for h.len() > 0 {
		got = append(got, h.pop())
	}
	want := []int32{4, 1, 10, 0, 15, 3, 8, 5, 11, 7, 14, 6, 12, 13, 2, 9}
	if !slices.Equal(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
}
