package lint_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/lint"
	"repro/internal/netlist"
)

// compileS27 compiles the paper's worked example fresh for each subtest, so
// corruption of one result cannot leak into the next.
func compileS27(t *testing.T) (*core.Result, core.Options) {
	t.Helper()
	c, err := bench89.S27()
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(3, 1)
	res, err := core.Compile(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, opt
}

func partitionCtx(res *core.Result, opt core.Options) *lint.Context {
	return &lint.Context{
		File: res.Circuit.Name, Circuit: res.Circuit,
		Graph: res.Graph, SCC: res.SCC,
		Partition: res.Partition, Retiming: res.Retiming, CombGraph: res.CombGraph,
		LK: opt.LK, Beta: opt.Beta,
	}
}

func TestPartitionLayerCleanOnS27(t *testing.T) {
	res, opt := compileS27(t)
	diags := lint.RunLayer(partitionCtx(res, opt), lint.LayerPartition)
	if len(diags) != 0 {
		t.Fatalf("clean compile produced %v", diags)
	}
}

func TestPT001InputBound(t *testing.T) {
	res, opt := compileS27(t)
	ctx := partitionCtx(res, opt)
	ctx.LK = 1 // s27 at l_k=3 has clusters with 2-3 inputs
	diags := lint.RunLayer(ctx, lint.LayerPartition)
	if !hasRule(diags, "PT001") {
		t.Fatalf("want PT001, got %v", lint.RuleIDs(diags))
	}
}

func TestPT002PartitionCover(t *testing.T) {
	res, opt := compileS27(t)
	p := res.Partition
	if len(p.Clusters) < 2 {
		t.Skip("need at least two clusters to misassign a cell")
	}
	// The assignment array now disagrees with the membership lists.
	v := p.Clusters[0].Nodes[0]
	p.Assign[v] = p.Clusters[1].ID
	diags := lint.RunLayer(partitionCtx(res, opt), lint.LayerPartition)
	if !hasRule(diags, "PT002") {
		t.Fatalf("want PT002, got %v", lint.RuleIDs(diags))
	}
}

// A cluster whose recorded input nets miss one that its assignment implies
// understates iota, so PT001 would bound the wrong count: the gate must
// fire on s510 with one recorded input net dropped.
func TestPT002StaleInputNets(t *testing.T) {
	c, err := bench89.Load("s510")
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(16, 1)
	res, err := core.Compile(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if diags := lint.RunLayer(partitionCtx(res, opt), lint.LayerPartition); lint.HasAtLeast(diags, lint.Error) {
		t.Fatalf("clean s510 compile produced %v", diags)
	}
	in := res.Partition.Clusters[0].InputNets
	nets := make([]int, 0, len(in))
	for e := range in {
		nets = append(nets, e)
	}
	delete(in, slices.Min(nets))
	diags := lint.RunLayer(partitionCtx(res, opt), lint.LayerPartition)
	if !hasRule(diags, "PT002") {
		t.Fatalf("want PT002 for a dropped input net, got %v", lint.RuleIDs(diags))
	}
}

func TestPT003CutSeparation(t *testing.T) {
	res, _ := compileS27(t)
	p := res.Partition
	if len(p.CutNets) == 0 {
		t.Skip("no cut nets at this l_k")
	}
	t.Run("missing", func(t *testing.T) {
		res, opt := compileS27(t)
		res.Partition.CutNets = res.Partition.CutNets[1:]
		diags := lint.RunLayer(partitionCtx(res, opt), lint.LayerPartition)
		if !hasRule(diags, "PT003") {
			t.Fatalf("want PT003 for a dropped cut net, got %v", lint.RuleIDs(diags))
		}
	})
	t.Run("phantom", func(t *testing.T) {
		res, opt := compileS27(t)
		p := res.Partition
		cut := map[int]bool{}
		for _, e := range p.CutNets {
			cut[e] = true
		}
		// A net driven by a cell whose sinks all share its cluster is no cut.
		phantom := -1
		for e := range res.Graph.Nets {
			if cut[e] {
				continue
			}
			net := &res.Graph.Nets[e]
			if !res.Graph.IsCell(net.Source) {
				continue
			}
			internal := false
			for _, s := range net.Sinks {
				if res.Graph.IsCell(s) {
					internal = true
				}
			}
			if internal {
				phantom = e
				break
			}
		}
		if phantom < 0 {
			t.Skip("no internal non-cut net to fake")
		}
		p.CutNets = append(p.CutNets, phantom)
		diags := lint.RunLayer(partitionCtx(res, opt), lint.LayerPartition)
		if !hasRule(diags, "PT003") {
			t.Fatalf("want PT003 for a phantom cut net, got %v", lint.RuleIDs(diags))
		}
	})
}

func TestPT004CBITWidth(t *testing.T) {
	// A 40-input gate forms a cluster no standard CBIT (max 32 bits) covers;
	// l_k=64 lets the partitioner accept it without tripping PT001.
	wide, err := netlist.ParseBenchString("wide", wideGate(40))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(64, 1)
	res, err := core.Compile(context.Background(), wide, opt)
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.RunLayer(partitionCtx(res, opt), lint.LayerPartition)
	if !hasRule(diags, "PT004") {
		t.Fatalf("want PT004, got %v", lint.RuleIDs(diags))
	}
}

func TestPT005SCCBudget(t *testing.T) {
	res, opt := compileS27(t)
	p, scc := res.Partition, res.SCC
	if len(p.CutNetsOnSCC) == 0 {
		t.Skip("no on-SCC cut nets at this l_k")
	}
	// Zeroing f(SCC) makes any on-SCC cut exceed beta * f(SCC).
	comp := scc.NetComp[p.CutNetsOnSCC[0]]
	scc.RegCount[comp] = 0
	diags := lint.RunLayer(partitionCtx(res, opt), lint.LayerPartition)
	if !hasRule(diags, "PT005") {
		t.Fatalf("want PT005, got %v", lint.RuleIDs(diags))
	}
	for _, d := range diags {
		if d.RuleID == "PT005" && d.Severity != lint.Warning {
			t.Fatalf("PT005 severity = %v, want warning", d.Severity)
		}
	}
}

func TestPT006RetimeIllegal(t *testing.T) {
	res, opt := compileS27(t)
	if res.Retiming == nil || res.CombGraph == nil || len(res.CombGraph.Edges) == 0 {
		t.Skip("no retiming solution to corrupt")
	}
	// Shoving one vertex's lag far up makes its outgoing edge weight negative.
	e := res.CombGraph.Edges[0]
	res.Retiming.Rho[e.From] += 1000
	diags := lint.RunLayer(partitionCtx(res, opt), lint.LayerPartition)
	if !hasRule(diags, "PT006") {
		t.Fatalf("want PT006, got %v", lint.RuleIDs(diags))
	}
}

func TestPT007CutCoverage(t *testing.T) {
	res, _ := compileS27(t)
	if res.Retiming == nil {
		t.Skip("no retiming solution")
	}
	t.Run("phantom-coverage", func(t *testing.T) {
		res, opt := compileS27(t)
		// A net id beyond the net array is certainly not a cut net.
		res.Retiming.Covered = append(res.Retiming.Covered, len(res.Graph.Nets)+7)
		diags := lint.RunLayer(partitionCtx(res, opt), lint.LayerPartition)
		if !hasRule(diags, "PT007") {
			t.Fatalf("want PT007 for phantom coverage, got %v", lint.RuleIDs(diags))
		}
	})
	t.Run("unpriced-cut", func(t *testing.T) {
		res, opt := compileS27(t)
		sol := res.Retiming
		if len(sol.Covered) == 0 && len(sol.Demoted) == 0 {
			t.Skip("empty solution")
		}
		if len(sol.Covered) > 0 {
			sol.Covered = sol.Covered[1:]
		} else {
			sol.Demoted = sol.Demoted[1:]
		}
		diags := lint.RunLayer(partitionCtx(res, opt), lint.LayerPartition)
		if !hasRule(diags, "PT007") {
			t.Fatalf("want PT007 for an unpriced cut, got %v", lint.RuleIDs(diags))
		}
	})
}

// bistCtx emits the self-testable s27 netlist and wraps it for the BIST layer.
func bistCtx(t *testing.T) *lint.Context {
	t.Helper()
	res, _ := compileS27(t)
	if res.Retiming == nil {
		t.Skip("no retiming solution to emit from")
	}
	tc, info, err := emit.Testable(res)
	if err != nil {
		t.Fatal(err)
	}
	return &lint.Context{
		File: tc.Name,
		BIST: &lint.BISTArtifact{
			Circuit:   tc,
			ScanOrder: info.ScanOrder,
			TB1:       emit.CtrlTB1, TB2: emit.CtrlTB2, TMode: emit.CtrlTMode,
			ScanIn: emit.CtrlScanIn, ScanOut: emit.ScanOut,
		},
	}
}

func TestBISTLayerCleanOnS27(t *testing.T) {
	diags := lint.RunLayer(bistCtx(t), lint.LayerBIST)
	if len(diags) != 0 {
		t.Fatalf("clean emit produced %v", diags)
	}
}

func TestBT001ScanChainScrambled(t *testing.T) {
	ctx := bistCtx(t)
	so := ctx.BIST.ScanOrder
	if len(so) < 2 {
		t.Skip("scan chain too short to scramble")
	}
	so[0], so[1] = so[1], so[0]
	diags := lint.RunLayer(ctx, lint.LayerBIST)
	if !hasRule(diags, "BT001") {
		t.Fatalf("want BT001, got %v", lint.RuleIDs(diags))
	}
}

func TestBT002ModeWiringWrongControl(t *testing.T) {
	ctx := bistCtx(t)
	ctx.BIST.TB1 = "not_the_real_tb1"
	diags := lint.RunLayer(ctx, lint.LayerBIST)
	if !hasRule(diags, "BT002") {
		t.Fatalf("want BT002, got %v", lint.RuleIDs(diags))
	}
	// The fake control is also missing from the primary inputs.
	if !hasRule(diags, "BT004") {
		t.Fatalf("want BT004 alongside, got %v", lint.RuleIDs(diags))
	}
}

func TestBT003SignatureUnobservable(t *testing.T) {
	ctx := bistCtx(t)
	// Observing a primary input instead of the chain tail strands every cell.
	ctx.BIST.ScanOut = ctx.BIST.ScanIn
	diags := lint.RunLayer(ctx, lint.LayerBIST)
	for _, id := range []string{"BT003", "BT004"} {
		if !hasRule(diags, id) {
			t.Errorf("want %s, got %v", id, lint.RuleIDs(diags))
		}
	}
}

func TestBT005ACellStructure(t *testing.T) {
	ctx := bistCtx(t)
	ctx.BIST.ScanOrder = append(ctx.BIST.ScanOrder, "no_such_cell")
	diags := lint.RunLayer(ctx, lint.LayerBIST)
	if !hasRule(diags, "BT005") {
		t.Fatalf("want BT005, got %v", lint.RuleIDs(diags))
	}
}

// TestCoreLintGate covers Options.Lint end to end: a clean compile carries
// its diagnostics, a broken netlist aborts with *core.LintError.
func TestCoreLintGate(t *testing.T) {
	c, err := bench89.S27()
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(3, 1)
	opt.Lint = true
	res, err := core.Compile(context.Background(), c, opt)
	if err != nil {
		t.Fatalf("lint-gated compile of s27 failed: %v", err)
	}
	if lint.HasAtLeast(res.Lint, lint.Error) {
		t.Fatalf("s27 should carry no lint errors: %v", res.Lint)
	}

	// A combinational cycle must trip the netlist gate before STEP 1.
	broken, err := netlist.ParseBenchString("cyclic", `
INPUT(a)
OUTPUT(y)
y = AND(a, z)
z = NOT(y)
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Compile(context.Background(), broken, opt)
	le, ok := err.(*core.LintError)
	if !ok {
		t.Fatalf("want *core.LintError, got %v", err)
	}
	if le.Stage != "netlist" {
		t.Fatalf("gate stage = %q, want netlist", le.Stage)
	}
	found := false
	for _, d := range le.Diags {
		if d.RuleID == "NL006" {
			found = true
		}
	}
	if !found {
		t.Fatalf("gate diagnostics missing NL006: %v", le.Diags)
	}
}
