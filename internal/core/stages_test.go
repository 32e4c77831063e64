package core

// Tests for the staged pipeline artifacts: equivalence with the one-shot
// Compile driver, content-key determinism, and the immutability contract
// that lets batch drivers share artifacts across goroutines.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench89"
	"repro/internal/netlist"
)

func loadBench(t *testing.T, name string) *netlist.Circuit {
	t.Helper()
	c, err := bench89.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// stagedCompile runs the explicit artifact chain Parse → Analyze →
// Saturate → CompileFrom, the path the sweep cache assembles per job.
func stagedCompile(t *testing.T, c *netlist.Circuit, opt Options) *Result {
	t.Helper()
	ctx := context.Background()
	p, err := NewParsed(c)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SaturateNetwork(ctx, a, opt.FlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := CompileFrom(ctx, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// The central refactor invariant: chaining the stage constructors by hand
// prices exactly like the one-shot Compile driver, for every circuit and
// l_k the fast suite covers.
func TestStagedMatchesCompile(t *testing.T) {
	for _, name := range []string{"s27", "s510"} {
		for _, lk := range []int{16, 24} {
			opt := DefaultOptions(lk, 1)
			want, err := Compile(context.Background(), loadBench(t, name), opt)
			if err != nil {
				t.Fatalf("%s lk=%d: Compile: %v", name, lk, err)
			}
			got := stagedCompile(t, loadBench(t, name), opt)
			if got.Areas != want.Areas {
				t.Errorf("%s lk=%d: staged areas %+v != Compile %+v", name, lk, got.Areas, want.Areas)
			}
			if len(got.Partition.Clusters) != len(want.Partition.Clusters) {
				t.Errorf("%s lk=%d: staged clusters %d != Compile %d",
					name, lk, len(got.Partition.Clusters), len(want.Partition.Clusters))
			}
			if got.Partition.MaxInputs() != want.Partition.MaxInputs() {
				t.Errorf("%s lk=%d: staged max inputs %d != Compile %d",
					name, lk, got.Partition.MaxInputs(), want.Partition.MaxInputs())
			}
		}
	}
}

// One Saturated artifact must serve every downstream (l_k, β) coordinate:
// compiling lk=16 then lk=24 from the same artifact matches per-coordinate
// fresh compilations. This is the shared-prefix property the sweep cache
// depends on.
func TestSaturatedSharedAcrossCoordinates(t *testing.T) {
	ctx := context.Background()
	base := DefaultOptions(16, 1)
	p, err := NewParsed(loadBench(t, "s510"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SaturateNetwork(ctx, a, base.FlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, lk := range []int{16, 24} {
		for _, beta := range []int{25, 100} {
			opt := DefaultOptions(lk, 1)
			opt.Beta = beta
			shared, err := CompileFrom(ctx, s, opt)
			if err != nil {
				t.Fatalf("lk=%d beta=%d: CompileFrom: %v", lk, beta, err)
			}
			fresh, err := Compile(ctx, loadBench(t, "s510"), opt)
			if err != nil {
				t.Fatalf("lk=%d beta=%d: Compile: %v", lk, beta, err)
			}
			if shared.Areas != fresh.Areas {
				t.Errorf("lk=%d beta=%d: shared-artifact areas %+v != fresh %+v",
					lk, beta, shared.Areas, fresh.Areas)
			}
		}
	}
}

// Content keys must be deterministic functions of the inputs: equal for
// structurally identical circuits, distinct across circuits and seeds.
func TestArtifactKeysDeterministic(t *testing.T) {
	p1, err := NewParsed(loadBench(t, "s27"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewParsed(loadBench(t, "s27"))
	if err != nil {
		t.Fatal(err)
	}
	if p1.Key() != p2.Key() {
		t.Errorf("same circuit, different keys: %q vs %q", p1.Key(), p2.Key())
	}
	if !strings.HasPrefix(p1.Key(), "circuit:") {
		t.Errorf("key %q lacks the circuit: prefix", p1.Key())
	}
	other, err := NewParsed(loadBench(t, "s510"))
	if err != nil {
		t.Fatal(err)
	}
	if p1.Key() == other.Key() {
		t.Errorf("distinct circuits share key %q", p1.Key())
	}

	a, err := Analyze(context.Background(), p1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != p1.AnalyzeKey() {
		t.Errorf("Analyzed key %q != AnalyzeKey %q", a.Key(), p1.AnalyzeKey())
	}
	k1 := a.SaturateKey(DefaultOptions(16, 1).FlowConfig())
	k1again := a.SaturateKey(DefaultOptions(24, 1).FlowConfig()) // l_k must not enter
	k2 := a.SaturateKey(DefaultOptions(16, 2).FlowConfig())
	if k1 != k1again {
		t.Errorf("saturate key depends on l_k: %q vs %q", k1, k1again)
	}
	if k1 == k2 {
		t.Errorf("saturate key ignores the seed: %q", k1)
	}
}

// The immutability contract: MakeGroup consumes the distance vector
// destructively, so MakePartition must operate on a copy — partitioning
// twice from one Saturated artifact leaves its Flow().D untouched and
// yields identical results.
func TestSaturatedDistancesImmutable(t *testing.T) {
	ctx := context.Background()
	opt := DefaultOptions(16, 1)
	p, err := NewParsed(loadBench(t, "s510"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SaturateNetwork(ctx, a, opt.FlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), s.Flow().D...)

	pt1, err := MakePartition(ctx, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	pt2, err := MakePartition(ctx, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if s.Flow().D[i] != before[i] {
			t.Fatalf("Flow().D[%d] mutated by MakePartition: %g -> %g", i, before[i], s.Flow().D[i])
		}
	}
	if len(pt1.Partition().Clusters) != len(pt2.Partition().Clusters) {
		t.Errorf("repeated MakePartition diverged: %d vs %d clusters",
			len(pt1.Partition().Clusters), len(pt2.Partition().Clusters))
	}
}

// NetlistLint memoizes the diagnostics but must hand every caller a fresh
// slice: batch drivers append partition-layer findings to the returned
// value, and a shared backing array would race.
func TestNetlistLintReturnsFreshCopy(t *testing.T) {
	p, err := NewParsed(loadBench(t, "s27"))
	if err != nil {
		t.Fatal(err)
	}
	first := p.NetlistLint()
	n := len(first)
	_ = append(first, p.NetlistLint()...) // grow through the first slice
	second := p.NetlistLint()
	if len(second) != n {
		t.Fatalf("memoized diagnostics grew: %d -> %d", n, len(second))
	}
	if n > 0 && &first[0] == &second[0] {
		t.Error("NetlistLint returned the same backing array twice")
	}
}

// Validate must stay a pure checker after the refactor: fanout lists are
// derived once by Finalize/Normalize, and a second Validate on the same
// circuit must not duplicate them.
func TestValidateDoesNotMutateFanouts(t *testing.T) {
	c := loadBench(t, "s27")
	var before []int
	for _, g := range c.Gates {
		before = append(before, len(g.Fanout()))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, g := range c.Gates {
		if len(g.Fanout()) != before[i] {
			t.Fatalf("gate %s: fanout count changed %d -> %d across Validate calls",
				g.Name, before[i], len(g.Fanout()))
		}
	}
}
