package bench89

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestGenerateRandomSpecs: the generator must produce a valid,
// comb-cycle-free circuit with exact counts for arbitrary small specs, not
// just the Table 9 ones.
func TestGenerateRandomSpecs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dffs := rng.Intn(30)
		onSCC := 0
		if dffs > 0 {
			onSCC = rng.Intn(dffs + 1)
		}
		gates := onSCC + 20 + rng.Intn(200)
		invs := rng.Intn(60)
		// Area must be achievable: between all-NAND2 and all-AND4-ish.
		minArea := float64(dffs*10+invs) + 2*float64(gates)
		maxArea := float64(dffs*10+invs) + 5*float64(gates)
		area := minArea + rng.Float64()*(maxArea-minArea)*0.5
		sp := Spec{
			Name: "rand", PIs: 2 + rng.Intn(20), DFFs: dffs, Gates: gates,
			Inverters: invs, Area: area, DFFsOnSCC: onSCC,
		}
		c, err := Generate(sp, seed)
		if err != nil {
			return false
		}
		st := c.Stats()
		if st.PIs != sp.PIs || st.DFFs != sp.DFFs || st.Gates != sp.Gates || st.Inverters != sp.Inverters {
			return false
		}
		g, err := graph.FromCircuit(c)
		if err != nil {
			return false
		}
		info := g.SCC()
		for comp := 0; comp < info.NumComponents(); comp++ {
			if info.Nontrivial(comp) && info.RegCount[comp] == 0 {
				return false // combinational cycle
			}
		}
		return g.RegsOnSCC(info) >= sp.DFFsOnSCC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCompileRandomGenerated: the whole Merced pipeline must succeed on
// arbitrary generated circuits (end-to-end failure injection).
func TestCompileRandomGenerated(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dffs := 2 + rng.Intn(20)
		onSCC := rng.Intn(dffs + 1)
		gates := onSCC + 30 + rng.Intn(120)
		sp := Spec{
			Name: "rand", PIs: 3 + rng.Intn(25), DFFs: dffs, Gates: gates,
			Inverters: rng.Intn(40), DFFsOnSCC: onSCC,
		}
		sp.Area = float64(sp.DFFs*10+sp.Inverters) + 2.6*float64(sp.Gates)
		c, err := Generate(sp, seed)
		if err != nil {
			return false
		}
		r, err := core.Compile(context.Background(), c, core.DefaultOptions(8, seed))
		if err != nil {
			return false
		}
		if err := r.Partition.Validate(); err != nil {
			return false
		}
		// Invariant: solver covered+demoted == cut nets.
		if len(r.Retiming.Covered)+len(r.Retiming.Demoted) != r.Areas.CutNets {
			return false
		}
		// Invariant: retimed CBIT area never exceeds the non-retimed one.
		return r.Areas.CBITAreaRetimed <= r.Areas.CBITAreaNonRetimed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
