package core

import (
	"context"
	"testing"
)

func TestCompileBetaClamped(t *testing.T) {
	opt := DefaultOptions(3, 1)
	opt.Beta = 0 // clamped to 1 rather than rejected
	if _, err := Compile(context.Background(), s27(t), opt); err != nil {
		t.Fatalf("beta=0 should clamp: %v", err)
	}
}

func TestCompileTinyLK(t *testing.T) {
	// l_k below the max fanin: Make_Group cannot satisfy the constraint
	// for every cluster; compilation still succeeds and reports the
	// violation through MaxInputs.
	opt := DefaultOptions(1, 1)
	r, err := Compile(context.Background(), s27(t), opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Partition.MaxInputs() <= 1 {
		t.Fatal("expected an unsatisfiable constraint to surface")
	}
}

func TestRefineDisabled(t *testing.T) {
	on := DefaultOptions(3, 1)
	off := DefaultOptions(3, 1)
	off.RefinePasses = 0
	a, err := Compile(context.Background(), s27(t), on)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(context.Background(), s27(t), off)
	if err != nil {
		t.Fatal(err)
	}
	if a.Areas.CutNets > b.Areas.CutNets {
		t.Fatalf("refinement made things worse: %d vs %d", a.Areas.CutNets, b.Areas.CutNets)
	}
}

func TestLockedNodesRespected(t *testing.T) {
	c := s27(t)
	opt := DefaultOptions(3, 1)
	opt.RefinePasses = 0 // refinement may legally move locked cells; pin the pass off
	// Lock G9 (node id resolved after graph build, so compile twice: once
	// to find the id, once locked).
	r0, err := Compile(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := r0.Graph.NodeByName("G9")
	if !ok {
		t.Fatal("G9 missing")
	}
	opt.Locked = map[int]bool{id: true}
	r, err := Compile(context.Background(), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
}
