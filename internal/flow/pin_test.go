package flow

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/bench89"
	"repro/internal/graph"
)

// benchGraph returns the net graph of a bench89 twin.
func benchGraph(tb testing.TB, name string) *graph.G {
	tb.Helper()
	c, err := bench89.Load(name)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := graph.FromCircuit(c)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// saturateDigest hashes every field of a Saturate result: D, Flow, Visits
// and Injected element by element (floats by their bits), then Trees.
func saturateDigest(r *Result) string {
	h := sha256.New()
	put := func(h hash.Hash, x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, fs := range [][]float64{r.D, r.Flow, r.Injected} {
		put(h, uint64(len(fs)))
		for _, f := range fs {
			put(h, math.Float64bits(f))
		}
	}
	put(h, uint64(len(r.Visits)))
	for _, v := range r.Visits {
		put(h, uint64(v))
	}
	put(h, uint64(r.Trees))
	return hex.EncodeToString(h.Sum(nil))
}

// TestSaturateDigestsPinned pins Saturate's whole result across commits on
// the inputs a change to its hot loop must leave alone: the s1423 twin at
// flow seeds 1–8 (the inputs of the benchmark's compile workload) and the
// s5378 twin at seed 1, each under the paper's parameters. Every float is
// compared bit for bit, so a reordered sum or a changed tie break fails
// here even where the partition it feeds happens not to move.
func TestSaturateDigestsPinned(t *testing.T) {
	for _, tc := range []struct {
		circuit string
		seed    int64
		digest  string
	}{
		{"s1423", 1, "5580bb456e78ff4c"},
		{"s1423", 2, "0ccf63d3c1db8abd"},
		{"s1423", 3, "0c2a04f96345fd61"},
		{"s1423", 4, "68666b25ab94fc3c"},
		{"s1423", 5, "de758023ff13695c"},
		{"s1423", 6, "410acd9c3624e171"},
		{"s1423", 7, "3f597d7fd5fa885d"},
		{"s1423", 8, "7fe76d869b01fc9d"},
		{"s5378", 1, "1c6c6a22fba3c46a"},
	} {
		t.Run(fmt.Sprintf("%s/seed%d", tc.circuit, tc.seed), func(t *testing.T) {
			r, err := Saturate(context.Background(), benchGraph(t, tc.circuit), DefaultConfig(tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			if got := saturateDigest(r)[:16]; got != tc.digest {
				t.Errorf("digest %s (%d trees), pinned %s", got, r.Trees, tc.digest)
			}
		})
	}
}

// BenchmarkSaturateS38584 runs Saturate under the paper's parameters on
// the largest twin, s38584.1, where it dominates the compile.
func BenchmarkSaturateS38584(b *testing.B) {
	g := benchGraph(b, "s38584.1")
	cfg := DefaultConfig(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Saturate(context.Background(), g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSaturateS1423 runs Saturate under the paper's parameters on the
// s1423 twin at flow seeds 1–8, the inputs of the benchmark's compile
// workload, so the saturation layer can be timed alone.
func BenchmarkSaturateS1423(b *testing.B) {
	g := benchGraph(b, "s1423")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for seed := int64(1); seed <= 8; seed++ {
			if _, err := Saturate(context.Background(), g, DefaultConfig(seed)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
