package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/bench89"
	"repro/internal/netlist"
)

func s27(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := bench89.S27()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompileS27(t *testing.T) {
	r, err := Compile(context.Background(), s27(t), DefaultOptions(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Partition.MaxInputs() > 3 {
		t.Fatalf("max inputs %d > lk", r.Partition.MaxInputs())
	}
	// The paper's Figure 7 example finds 4 partitions at l_k=3; the
	// stochastic flow gives 3-5 depending on seed — assert the ballpark.
	if n := len(r.Partition.Clusters); n < 2 || n > 6 {
		t.Fatalf("clusters = %d, expected 2..6", n)
	}
	if r.Areas.CutNets == 0 {
		t.Fatal("no cut nets on s27 at lk=3")
	}
	if r.Areas.DFFs != 3 || r.Areas.DFFsOnSCC != 3 {
		t.Fatalf("DFF accounting: %+v", r.Areas)
	}
	if r.Retiming == nil {
		t.Fatal("solver did not run")
	}
	if got := len(r.Retiming.Covered) + len(r.Retiming.Demoted); got != r.Areas.CutNets {
		t.Fatalf("solver covered+demoted = %d, cuts = %d", got, r.Areas.CutNets)
	}
}

func TestRetimedAlwaysCheaper(t *testing.T) {
	for _, name := range []string{"s510", "s420.1", "s641", "s820"} {
		c, err := bench89.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Compile(context.Background(), c, DefaultOptions(16, 1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Areas.CBITAreaRetimed > r.Areas.CBITAreaNonRetimed {
			t.Errorf("%s: retimed CBIT area %.0f > non-retimed %.0f",
				name, r.Areas.CBITAreaRetimed, r.Areas.CBITAreaNonRetimed)
		}
		if r.Areas.CutNets > 0 && r.Areas.Saving() <= 0 {
			t.Errorf("%s: no saving (%.1f)", name, r.Areas.Saving())
		}
	}
}

func TestLargerLKCutsFewerNets(t *testing.T) {
	// Table 11 vs Table 10: a wider input constraint accommodates more
	// nets and reduces the cut count.
	c, err := bench89.Load("s641")
	if err != nil {
		t.Fatal(err)
	}
	r16, err := Compile(context.Background(), c, DefaultOptions(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	r24, err := Compile(context.Background(), c, DefaultOptions(24, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r24.Areas.CutNets > r16.Areas.CutNets {
		t.Fatalf("lk=24 cut %d nets, lk=16 cut %d", r24.Areas.CutNets, r16.Areas.CutNets)
	}
}

func TestNoCutsWhenLKExceedsInputs(t *testing.T) {
	// Table 12's zero entries: circuits whose input count is below l_k
	// need no internal cuts.
	r, err := Compile(context.Background(), s27(t), DefaultOptions(16, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Areas.CutNets != 0 {
		t.Fatalf("s27 at lk=16 cut %d nets, want 0", r.Areas.CutNets)
	}
	if r.Areas.RatioRetimed != 0 || r.Areas.RatioNonRetimed != 0 {
		t.Fatalf("ratios nonzero: %+v", r.Areas)
	}
}

func TestCompileValidation(t *testing.T) {
	if _, err := Compile(context.Background(), nil, DefaultOptions(16, 1)); err == nil {
		t.Fatal("nil circuit accepted")
	}
	if _, err := Compile(context.Background(), s27(t), Options{LK: 0}); err == nil {
		t.Fatal("LK=0 accepted")
	}
}

// A circuit that fails normalization is rejected by the parse phase, and
// the error names that phase.
func TestCompileParseErrorNamesParsePhase(t *testing.T) {
	c := netlist.New("undriven")
	if err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate("y", netlist.And, "a", "ghost"); err != nil {
		t.Fatal(err)
	}
	c.AddOutput("y")
	_, err := Compile(context.Background(), c, DefaultOptions(16, 1))
	if err == nil || !strings.HasPrefix(err.Error(), "core: parse: ") {
		t.Fatalf("err = %v, want the core: parse: prefix", err)
	}
}

func TestSkipAssign(t *testing.T) {
	r, err := Compile(context.Background(), s27(t), Options{LK: 3, Beta: 50, Seed: 1, SkipAssign: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Merges) != 0 {
		t.Fatal("merges recorded despite SkipAssign")
	}
	if err := r.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSolverAccountingConsistent(t *testing.T) {
	r, err := Compile(context.Background(), s27(t), DefaultOptions(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Areas.CoveredCuts != len(r.Retiming.Covered) || r.Areas.ExcessCuts != len(r.Retiming.Demoted) {
		t.Fatalf("area report disagrees with solver: %+v vs %d/%d",
			r.Areas, len(r.Retiming.Covered), len(r.Retiming.Demoted))
	}
	want := float64(r.Areas.CoveredCuts)*9 + float64(r.Areas.ExcessCuts)*23
	if r.Areas.CBITAreaRetimed != want {
		t.Fatalf("retimed CBIT area %.1f, want %.1f", r.Areas.CBITAreaRetimed, want)
	}
	if r.Areas.CBITAreaNonRetimed != float64(r.Areas.CutNets)*23 {
		t.Fatalf("non-retimed CBIT area %.1f", r.Areas.CBITAreaNonRetimed)
	}
}

// Options built by hand, not by DefaultOptions, still price through the
// retiming solver: there is no second, coarser pricing path to fall into.
func TestCompileWithoutDefaultOptionsSolves(t *testing.T) {
	r, err := Compile(context.Background(), s27(t), Options{LK: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Retiming == nil || r.CombGraph == nil {
		t.Fatal("compilation carries no retiming solution")
	}
	if err := r.CombGraph.CheckLegal(r.Retiming.Rho); err != nil {
		t.Fatalf("illegal retiming: %v", err)
	}
	a := r.Areas
	if a.CoveredCuts != len(r.Retiming.Covered) || a.ExcessCuts != len(r.Retiming.Demoted) {
		t.Fatalf("areas priced %d covered / %d excess, solver %d / %d",
			a.CoveredCuts, a.ExcessCuts, len(r.Retiming.Covered), len(r.Retiming.Demoted))
	}
	if a.CoveredCuts+a.ExcessCuts != a.CutNets {
		t.Fatalf("covered %d + excess %d != cut nets %d", a.CoveredCuts, a.ExcessCuts, a.CutNets)
	}
}

func TestDeterministicCompile(t *testing.T) {
	a, err := Compile(context.Background(), s27(t), DefaultOptions(3, 42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(context.Background(), s27(t), DefaultOptions(3, 42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Areas.CutNets != b.Areas.CutNets || len(a.Partition.Clusters) != len(b.Partition.Clusters) {
		t.Fatal("compilation not deterministic for fixed seed")
	}
}

func TestPhasesPopulated(t *testing.T) {
	r, err := Compile(context.Background(), s27(t), DefaultOptions(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
	var total time.Duration
	r.Phases.Each(func(name string, d time.Duration) {
		if d <= 0 {
			t.Errorf("phase %s not recorded", name)
		}
		total += d
	})
	if total > r.Elapsed {
		t.Fatalf("phases sum to %v, past elapsed %v: %+v", total, r.Elapsed, r.Phases)
	}
}

func TestEndToEndSmallSuite(t *testing.T) {
	for _, sp := range bench89.SmallSpecs(1300) {
		c, err := bench89.Load(sp.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, lk := range []int{16, 24} {
			r, err := Compile(context.Background(), c, DefaultOptions(lk, 1))
			if err != nil {
				t.Fatalf("%s lk=%d: %v", sp.Name, lk, err)
			}
			if err := r.Partition.Validate(); err != nil {
				t.Fatalf("%s lk=%d: %v", sp.Name, lk, err)
			}
			if r.Partition.MaxInputs() > lk {
				t.Errorf("%s lk=%d: max inputs %d", sp.Name, lk, r.Partition.MaxInputs())
			}
		}
	}
}
