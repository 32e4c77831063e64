// One benchmark per table and figure of the paper's evaluation, plus
// micro-benchmarks for every pipeline stage. The per-table benches run on
// the tractable circuit subset so `go test -bench=.` finishes in minutes;
// `go run ./cmd/merced tables -table all` regenerates the full
// seventeen-circuit tables (under a minute on two cores, dominated by
// s35932/s38417/s38584.1).
package ppetretime

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench89"
	"repro/internal/cbit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/ppet"
	"repro/internal/retime"
)

// benchCircuits is the subset used by the per-table benchmarks.
var benchCircuits = []string{"s510", "s420.1", "s641", "s713", "s820", "s832", "s838.1", "s1423"}

func loadB(b *testing.B, name string) *netlist.Circuit {
	b.Helper()
	c, err := bench89.Load(name)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func compileB(b *testing.B, name string, lk int) *core.Result {
	b.Helper()
	r, err := core.Compile(context.Background(), loadB(b, name), core.DefaultOptions(lk, 1))
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable1CBITArea regenerates Table 1 (CBIT area cost per type).
func BenchmarkTable1CBITArea(b *testing.B) {
	var rows []cbit.Table1Row
	for i := 0; i < b.N; i++ {
		rows = cbit.Table1()
	}
	b.StopTimer()
	for _, r := range rows {
		b.Logf("Table1 %s l=%d p=%.2f sigma=%.2f", r.Type, r.Length, r.AreaDFF, r.PerBit)
	}
}

// BenchmarkFigure4BitwiseArea regenerates the Figure 4 series: bit-wise
// CBIT area vs. pseudo-exhaustive testing time per standard width.
func BenchmarkFigure4BitwiseArea(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, w := range cbit.StandardWidths {
			sink += cbit.AreaPerBit(w) + cbit.TestingTime(w)
		}
	}
	b.StopTimer()
	for _, w := range cbit.StandardWidths {
		b.Logf("Figure4 l=%d sigma=%.3f T=%.0f", w, cbit.AreaPerBit(w), cbit.TestingTime(w))
	}
	_ = sink
}

// BenchmarkFigure1bTestingTime regenerates Figure 1(b): a test pipe's time
// is dominated by its widest CBIT.
func BenchmarkFigure1bTestingTime(b *testing.B) {
	widths := [][]int{{4, 8}, {8, 16, 4}, {24, 12}, {32, 16, 8}}
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, pipe := range widths {
			sink += ppet.PipeTime(pipe)
		}
	}
	b.StopTimer()
	for _, pipe := range widths {
		b.Logf("Figure1b pipe %v -> T=%.0f cycles", pipe, ppet.PipeTime(pipe))
	}
	_ = sink
}

// BenchmarkTable9CircuitInfo regenerates the Table 9 circuit statistics for
// the bench subset (`merced tables` covers all seventeen).
func BenchmarkTable9CircuitInfo(b *testing.B) {
	var stats []netlist.Stats
	for i := 0; i < b.N; i++ {
		stats = stats[:0]
		for _, name := range benchCircuits {
			stats = append(stats, loadB(b, name).Stats())
		}
	}
	b.StopTimer()
	for _, s := range stats {
		b.Logf("Table9 %-8s PI=%d DFF=%d gates=%d INV=%d area=%.0f", s.Name, s.PIs, s.DFFs, s.Gates, s.Inverters, s.Area)
	}
}

func benchPartitionTable(b *testing.B, lk int, circuits []string) {
	for _, name := range circuits {
		name := name
		b.Run(name, func(b *testing.B) {
			var r *core.Result
			for i := 0; i < b.N; i++ {
				r = compileB(b, name, lk)
			}
			b.StopTimer()
			b.Logf("Table%d %-8s DFF=%d DFFonSCC=%d cutsOnSCC=%d cuts=%d t=%.2fs",
				10+(lk-16)/8, name, r.Areas.DFFs, r.Areas.DFFsOnSCC,
				r.Areas.CutNetsOnSCC, r.Areas.CutNets, r.Elapsed.Seconds())
		})
	}
}

// BenchmarkTable10PartitionLk16 regenerates the Table 10 rows (l_k=16).
func BenchmarkTable10PartitionLk16(b *testing.B) {
	benchPartitionTable(b, 16, benchCircuits)
}

// BenchmarkTable11PartitionLk24 regenerates the Table 11 rows (l_k=24) for
// the circuits the paper lists there.
func BenchmarkTable11PartitionLk24(b *testing.B) {
	benchPartitionTable(b, 24, []string{"s641", "s713"})
}

// BenchmarkTable12AreaComparison regenerates the Table 12 rows: CBIT area
// percentage with and without retiming at l_k = 16 and 24.
func BenchmarkTable12AreaComparison(b *testing.B) {
	for _, name := range benchCircuits {
		name := name
		b.Run(name, func(b *testing.B) {
			var a16, a24 core.AreaReport
			for i := 0; i < b.N; i++ {
				a16 = compileB(b, name, 16).Areas
				a24 = compileB(b, name, 24).Areas
			}
			b.StopTimer()
			b.Logf("Table12 %-8s lk16 %.1f/%.1f  lk24 %.1f/%.1f",
				name, a16.RatioRetimed, a16.RatioNonRetimed, a24.RatioRetimed, a24.RatioNonRetimed)
		})
	}
}

// BenchmarkFigure8Savings regenerates the Figure 8 series (retiming saving
// in A_CBIT/A_Total percentage points per circuit).
func BenchmarkFigure8Savings(b *testing.B) {
	var rows []string
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, name := range benchCircuits {
			r := compileB(b, name, 16)
			rows = append(rows, fmt.Sprintf("Figure8 %-8s saving=%.1f", name, r.Areas.Saving()))
		}
	}
	b.StopTimer()
	b.Log("\n" + strings.Join(rows, "\n"))
}

// BenchmarkFigure5SaturateS27 regenerates the Figure 5 state: the saturated
// congestion of the paper's s27 example.
func BenchmarkFigure5SaturateS27(b *testing.B) {
	c := loadB(b, "s27")
	g, err := graph.FromCircuit(c)
	if err != nil {
		b.Fatal(err)
	}
	var res *flow.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = flow.Saturate(context.Background(), g, flow.DefaultConfig(1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("Figure5 s27: %d trees, max d=%.2f", res.Trees, maxOf(res.D))
}

// BenchmarkFigures67MakeGroupAssign regenerates Figures 6 and 7: Make_Group
// then Assign_CBIT on s27 at l_k=3.
func BenchmarkFigures67MakeGroupAssign(b *testing.B) {
	c := loadB(b, "s27")
	g, err := graph.FromCircuit(c)
	if err != nil {
		b.Fatal(err)
	}
	scc := g.SCC()
	fres, err := flow.Saturate(context.Background(), g, flow.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	var r *partition.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := append([]float64(nil), fres.D...)
		r, err = partition.MakeGroup(g, scc, d, partition.Options{LK: 3, Beta: 50})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := partition.AssignCBIT(r, 3); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.Logf("Figures6+7 s27: %d clusters, %d cuts", len(r.Clusters), r.NumCutNets())
}

// --- pipeline-stage micro-benchmarks -----------------------------------

func BenchmarkParseBench(b *testing.B) {
	text := loadB(b, "s1423").BenchString()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netlist.ParseBenchString("s1423", text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateSuite(b *testing.B) {
	sp, _ := bench89.SpecByName("s1423")
	for i := 0; i < b.N; i++ {
		if _, err := bench89.Generate(sp, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSCC(b *testing.B) {
	g, err := graph.FromCircuit(loadB(b, "s5378"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SCC()
	}
}

// BenchmarkSaturateNetwork cycles the fixed flow seeds 1-8, as the
// repository benchmark's compile workload does, so ns/op measures the same
// workload whatever b.N turns out to be (a multiple of 8 averages it
// exactly; flow seeds move the cost by about 8%).
func BenchmarkSaturateNetwork(b *testing.B) {
	g, err := graph.FromCircuit(loadB(b, "s1423"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Saturate(context.Background(), g, flow.DefaultConfig(int64(i%8+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMakeGroup(b *testing.B) {
	g, err := graph.FromCircuit(loadB(b, "s1423"))
	if err != nil {
		b.Fatal(err)
	}
	scc := g.SCC()
	fres, err := flow.Saturate(context.Background(), g, flow.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := append([]float64(nil), fres.D...)
		if _, err := partition.MakeGroup(g, scc, d, partition.Options{LK: 16, Beta: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssignCBIT(b *testing.B) {
	g, err := graph.FromCircuit(loadB(b, "s1423"))
	if err != nil {
		b.Fatal(err)
	}
	scc := g.SCC()
	fres, err := flow.Saturate(context.Background(), g, flow.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := append([]float64(nil), fres.D...)
		r, err := partition.MakeGroup(g, scc, d, partition.Options{LK: 16, Beta: 50})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := partition.AssignCBIT(r, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRetimeSolve(b *testing.B) {
	r := compileB(b, "s1423", 16)
	cuts := make(map[int]bool, len(r.Partition.CutNets))
	priority := make(map[int]float64)
	for _, e := range r.Partition.CutNets {
		cuts[e] = true
		priority[e] = r.Flow.D[e]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cg := retime.Build(r.Graph)
		if _, err := retime.Solve(context.Background(), cg, cuts, priority); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLFSRStep(b *testing.B) {
	c, err := cbit.New(24)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= c.StepTPG()
	}
	_ = sink
}

func BenchmarkMISRStep(b *testing.B) {
	c, err := cbit.New(24)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= c.StepPSA(uint64(i))
	}
	_ = sink
}

// BenchmarkFaultCampaign measures fault.Campaign on s510, which packs
// every cluster's collapsed faults into triaged batches across a worker
// pool (see also the seed-vs-engine comparison pair in
// internal/fault/campaign_bench_test.go).
func BenchmarkFaultCampaign(b *testing.B) {
	c := loadB(b, "s510")
	r := compileB(b, "s510", 8)
	opt := fault.CampaignOptions{Seed: 1, Workers: 4, Collapse: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fault.Campaign(context.Background(), c, r.Partition, opt)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Detected == 0 {
			b.Fatal("campaign detected nothing")
		}
	}
}

func BenchmarkPPETSelfTest(b *testing.B) {
	c := loadB(b, "s27")
	r := compileB(b, "s27", 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppet.SelfTest(c, r.Partition, ppet.SelfTestOptions{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullCompileS1423(b *testing.B) {
	c := loadB(b, "s1423")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(context.Background(), c, core.DefaultOptions(16, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
