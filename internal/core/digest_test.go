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
// recorded when nodes without out-nets stopped entering the Dijkstra heap
// and Saturate began bumping the reached nodes in ascending node order
// after the source; any change to the heap's tie order, the Dijkstra
// relaxation sums, the visit order or the merge candidate order moves at
// least one of them.
func TestCompileDigestsPinned(t *testing.T) {
	cases := []struct {
		circuit string
		seed    int64
		long    bool
		want    compileDigest
	}{
		{"s1423", 1, false, compileDigest{DHash: 0x9966a69f266da6a, MergeHash: 0x55c4ccd744bab233, Trees: 939, CutNets: 167, DFSVisits: 19140, RefineMoves: 34, RatioRetimedBits: 0x404593ccc2cff27a}},
		{"s1423", 2, false, compileDigest{DHash: 0x88f541c6220f8705, MergeHash: 0xb8d014a071bee366, Trees: 829, CutNets: 158, DFSVisits: 15810, RefineMoves: 43, RatioRetimedBits: 0x4044a9252f63347d}},
		{"s5378", 1, false, compileDigest{DHash: 0xf920e05fc5246953, MergeHash: 0x7590af8086c6f1dc, Trees: 3840, CutNets: 639, DFSVisits: 274006, RefineMoves: 163, RatioRetimedBits: 0x4048bebc7504e3bd}},
		{"s5378", 2, false, compileDigest{DHash: 0xb84729d85295fdc, MergeHash: 0x82ab3bd6048890a0, Trees: 3895, CutNets: 661, DFSVisits: 291207, RefineMoves: 146, RatioRetimedBits: 0x404932ddc6f2c657}},
		{"s13207.1", 1, true, compileDigest{DHash: 0xe88309d11ccde16d, MergeHash: 0xe25b0d98443ac6a0, Trees: 6432, CutNets: 1956, DFSVisits: 858055, RefineMoves: 497, RatioRetimedBits: 0x4048e8b6c039e5a3}},
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
