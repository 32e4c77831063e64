package retime

import (
	"context"
	"testing"
)

// TestSolveCountsRelaxations pins the solver's work counters: the SPFA
// relaxation count the -metrics table reports must be positive whenever the
// solver labels anything, and deterministic run to run.
func TestSolveCountsRelaxations(t *testing.T) {
	_, cg := s27CombGraph(t)
	cuts := map[int]bool{}
	for _, e := range cg.Edges {
		if e.W > 0 {
			cuts[e.ID] = true
		}
	}
	sol, err := Solve(context.Background(), cg, cuts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Relaxations <= 0 {
		t.Fatalf("Relaxations = %d, want > 0", sol.Relaxations)
	}
	if sol.Checkpoints < 0 {
		t.Fatalf("Checkpoints = %d, want >= 0", sol.Checkpoints)
	}

	cg2 := chainGraph([]int{1, 1, 1}, true)
	cuts2 := map[int]bool{0: true, 1: true, 2: true}
	a, err := Solve(context.Background(), cg2, cuts2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), cg2, cuts2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Relaxations != b.Relaxations || a.Checkpoints != b.Checkpoints {
		t.Fatalf("counters nondeterministic: (%d,%d) vs (%d,%d)",
			a.Relaxations, a.Checkpoints, b.Relaxations, b.Checkpoints)
	}
}
