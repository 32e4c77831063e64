// Ablation benchmarks for the design choices DESIGN.md calls out: the
// visit-sampling policy of Saturate_Network, the Eq. (6) beta budget, the
// Assign_CBIT merging pass, and the per-cycle retiming solver vs. the
// coarse per-SCC bound. Run with:
//
//	go test -bench=Ablation -benchmem
package ppetretime

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/retime"
)

// BenchmarkAblationVisitPolicy compares the two readings of Table 3's
// visit counter: VisitTree (default, scalable) vs. VisitSource (literal,
// quadratic-ish). Same circuit, same constraint; the interesting outputs
// are the tree counts and the resulting cut sets.
func BenchmarkAblationVisitPolicy(b *testing.B) {
	g, err := graph.FromCircuit(loadB(b, "s641"))
	if err != nil {
		b.Fatal(err)
	}
	scc := g.SCC()
	for _, pol := range []struct {
		name   string
		policy flow.VisitPolicy
		visits int
	}{
		{"tree/minvisit=20", flow.VisitTree, 20},
		{"source/minvisit=2", flow.VisitSource, 2},
	} {
		pol := pol
		b.Run(pol.name, func(b *testing.B) {
			var cuts, trees int
			for i := 0; i < b.N; i++ {
				cfg := flow.DefaultConfig(1)
				cfg.Policy = pol.policy
				cfg.MinVisit = pol.visits
				fres, err := flow.Saturate(context.Background(), g, cfg)
				if err != nil {
					b.Fatal(err)
				}
				d := append([]float64(nil), fres.D...)
				r, err := partition.MakeGroup(g, scc, d, partition.Options{LK: 16, Beta: 50})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := partition.AssignCBIT(r, 16); err != nil {
					b.Fatal(err)
				}
				cuts, trees = r.NumCutNets(), fres.Trees
			}
			b.StopTimer()
			b.Logf("ablation visit=%s: %d trees, %d cuts", pol.name, trees, cuts)
		})
	}
}

// BenchmarkAblationBeta sweeps the Eq. (6) budget: beta=1 forbids cutting
// more SCC nets than the component carries registers; beta=50 is the
// paper's relaxed setting.
func BenchmarkAblationBeta(b *testing.B) {
	c := loadB(b, "s1423")
	for _, beta := range []int{1, 2, 50} {
		beta := beta
		b.Run(map[int]string{1: "beta=1", 2: "beta=2", 50: "beta=50"}[beta], func(b *testing.B) {
			var r *core.Result
			for i := 0; i < b.N; i++ {
				opt := core.DefaultOptions(16, 1)
				opt.Beta = beta
				var err error
				r, err = core.Compile(context.Background(), c, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.Logf("ablation beta=%d: cuts=%d onSCC=%d maxIn=%d excess=%d",
				beta, r.Areas.CutNets, r.Areas.CutNetsOnSCC, r.Partition.MaxInputs(), r.Areas.ExcessCuts)
		})
	}
}

// BenchmarkAblationAssignMerge measures what the greedy Assign_CBIT pass
// buys: cluster count and cut nets with and without the merge.
func BenchmarkAblationAssignMerge(b *testing.B) {
	c := loadB(b, "s1423")
	for _, skip := range []bool{false, true} {
		skip := skip
		name := "with-merge"
		if skip {
			name = "no-merge"
		}
		b.Run(name, func(b *testing.B) {
			var r *core.Result
			for i := 0; i < b.N; i++ {
				opt := core.DefaultOptions(16, 1)
				opt.SkipAssign = skip
				var err error
				r, err = core.Compile(context.Background(), c, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.Logf("ablation merge=%v: clusters=%d cuts=%d", !skip, len(r.Partition.Clusters), r.Areas.CutNets)
		})
	}
}

// BenchmarkAblationSolverVsSCCBound compares the faithful per-cycle
// difference-constraint solver against the coarse per-SCC register bound
// for the Table 12 covered/excess split.
func BenchmarkAblationSolverVsSCCBound(b *testing.B) {
	c := loadB(b, "s1423")
	r, err := core.Compile(context.Background(), c, core.DefaultOptions(16, 1))
	if err != nil {
		b.Fatal(err)
	}
	cutsPerSCC := map[int]int{}
	for _, e := range r.Partition.CutNetsOnSCC {
		cutsPerSCC[r.SCC.NetComp[e]]++
	}
	regsPerSCC := map[int]int{}
	for comp := range cutsPerSCC {
		regsPerSCC[comp] = r.SCC.RegCount[comp]
	}
	offSCC := r.Areas.CutNets - r.Areas.CutNetsOnSCC

	b.Run("per-scc-bound", func(b *testing.B) {
		var cov, exc int
		for i := 0; i < b.N; i++ {
			cov, exc = retime.CoverageBySCC(cutsPerSCC, regsPerSCC, offSCC)
		}
		b.StopTimer()
		b.Logf("ablation per-SCC bound: covered=%d excess=%d", cov, exc)
	})
	b.Run("per-cycle-solver", func(b *testing.B) {
		cuts := map[int]bool{}
		pri := map[int]float64{}
		for _, e := range r.Partition.CutNets {
			cuts[e] = true
			pri[e] = r.Flow.D[e]
		}
		var sol *retime.Solution
		for i := 0; i < b.N; i++ {
			cg := retime.Build(r.Graph)
			var err error
			sol, err = retime.Solve(context.Background(), cg, cuts, pri)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.Logf("ablation solver: covered=%d excess=%d (iterations %d)",
			len(sol.Covered), len(sol.Demoted), sol.Iterations)
	})
}
