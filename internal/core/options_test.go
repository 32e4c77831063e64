package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/flow"
)

func TestCompileWithFlowOverride(t *testing.T) {
	opt := DefaultOptions(3, 1)
	opt.Flow = flow.Config{MinVisit: 5, Seed: 9} // zero Capacity/Alpha/Delta fall back
	r, err := Compile(context.Background(), s27(t), opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flow.Trees == 0 {
		t.Fatal("override ran no trees")
	}
	if err := r.Partition.Validate(); err != nil {
		t.Fatal(err)
	}
}

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

// Options.Validate checks the resolved flow config, so a bad Saturate_Network
// parameter fails before any job runs, naming the field, while zero fields
// (resolved to the paper defaults) stay valid.
func TestValidateFlowConfig(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		flow  flow.Config
		field string // "" means valid
	}{
		{"zero value", flow.Config{}, ""},
		{"partial, zero fields default", flow.Config{MinVisit: 5, Seed: 9}, ""},
		{"NaN capacity", flow.Config{Capacity: nan}, "Capacity"},
		{"Inf capacity", flow.Config{Capacity: inf}, "Capacity"},
		{"negative capacity", flow.Config{Capacity: -1}, "Capacity"},
		{"NaN delta", flow.Config{Delta: nan}, "Delta"},
		{"-Inf delta", flow.Config{Delta: -inf}, "Delta"},
		{"negative delta", flow.Config{Delta: -0.01}, "Delta"},
		{"NaN alpha", flow.Config{Alpha: nan}, "Alpha"},
		{"Inf alpha", flow.Config{Alpha: inf}, "Alpha"},
		{"negative alpha", flow.Config{Alpha: -4}, "Alpha"},
		{"negative min visit", flow.Config{MinVisit: -1}, "MinVisit"},
	}
	for _, tc := range cases {
		opt := DefaultOptions(3, 1)
		opt.Flow = tc.flow
		err := opt.Validate()
		if tc.field == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate() = %v, want an error naming %s", tc.name, err, tc.field)
		}
	}
}
