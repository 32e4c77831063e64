package core

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/bench89"
)

// compileDigest condenses the decisions a compile makes: the saturated
// distances bit for bit, the tree count, every greedy merge, the cut set
// size, the Make_Set and Refine work and the priced area ratio.
type compileDigest struct {
	DHash, MergeHash       uint64
	Trees, CutNets         int
	DFSVisits, RefineMoves int
	RatioRetimedBits       uint64
}

func digestOf(r *Result) compileDigest {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range r.Flow.D {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(d))
		h.Write(buf[:])
	}
	dHash := h.Sum64()
	h.Reset()
	put := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		h.Write(buf[:])
	}
	for _, m := range r.Merges {
		for _, x := range []int{m.Into, m.From, m.InputsBefore, m.InputsAfter, m.Gain} {
			put(x)
		}
	}
	put(len(r.Merges))
	return compileDigest{
		DHash:            dHash,
		MergeHash:        h.Sum64(),
		Trees:            r.Flow.Trees,
		CutNets:          r.Partition.NumCutNets(),
		DFSVisits:        r.Partition.DFSVisits,
		RefineMoves:      r.Partition.RefineMoves,
		RatioRetimedBits: math.Float64bits(r.Areas.RatioRetimed),
	}
}

// TestCompileDigestsPinned pins the exact decisions of Saturate_Network,
// Make_Group, Assign_CBIT and Refine on a few circuits. The literals were
// recorded before the compile hot loops were rewritten over flat slices;
// any change to the heap's tie order, the Dijkstra relaxation sums or the
// merge candidate order moves at least one of them.
func TestCompileDigestsPinned(t *testing.T) {
	cases := []struct {
		circuit string
		seed    int64
		long    bool
		want    compileDigest
	}{
		{"s1423", 1, false, compileDigest{DHash: 0xea60a381c36a69bc, MergeHash: 0x2e53289fa4532040, Trees: 936, CutNets: 165, DFSVisits: 19087, RefineMoves: 49, RatioRetimedBits: 0x4045726154b94163}},
		{"s1423", 2, false, compileDigest{DHash: 0x286ad1649c5d835c, MergeHash: 0x560e4ae6372be649, Trees: 813, CutNets: 165, DFSVisits: 14529, RefineMoves: 56, RatioRetimedBits: 0x40452331b88e18f6}},
		{"s5378", 1, false, compileDigest{DHash: 0x581834a1afe58a75, MergeHash: 0xf56753a4983ac936, Trees: 3878, CutNets: 659, DFSVisits: 277257, RefineMoves: 157, RatioRetimedBits: 0x404922ad62eea94f}},
		{"s5378", 2, false, compileDigest{DHash: 0x7105cc7c73681c46, MergeHash: 0x7dc35a06af926df7, Trees: 4099, CutNets: 657, DFSVisits: 296572, RefineMoves: 164, RatioRetimedBits: 0x4048ee84ef8c2cc0}},
		{"s13207.1", 1, true, compileDigest{DHash: 0xb11368fd7932e0fa, MergeHash: 0x11e71098838fac7b, Trees: 6386, CutNets: 1916, DFSVisits: 907970, RefineMoves: 515, RatioRetimedBits: 0x40488c45d9d6c437}},
	}
	for _, tc := range cases {
		if tc.long && testing.Short() {
			continue
		}
		c, err := bench89.Load(tc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Compile(context.Background(), c, DefaultOptions(16, tc.seed))
		if err != nil {
			t.Fatalf("%s seed %d: %v", tc.circuit, tc.seed, err)
		}
		if got := digestOf(r); got != tc.want {
			t.Errorf("%s seed %d: digest %#v, want %#v", tc.circuit, tc.seed, got, tc.want)
		}
	}
}
