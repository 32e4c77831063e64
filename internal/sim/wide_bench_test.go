package sim

// Kernel microbenchmarks: the unrolled width specializations on one
// 400-gate random program. The number to watch is
// ns/op divided by the width's lane count (63/127/255/511): per-lane
// throughput is what the campaign's batch packing converts into wall
// clock, and the unrolled W=4 kernel is the per-lane sweet spot.

import (
	"math/rand"
	"testing"
)

func benchProgram(b *testing.B) (*program, int) {
	rng := rand.New(rand.NewSource(1))
	order, nsig := randomProgram(rng, 400)
	return compileProgram(order), nsig
}

func benchVec[W lanevec](b *testing.B, kern func(p *program, v, force0, force1 []W)) {
	p, n := benchProgram(b)
	v := make([]W, n)
	f0 := make([]W, n)
	f1 := make([]W, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern(p, v, f0, f1)
	}
}

func BenchmarkEvalFaultyVec1(b *testing.B) { benchVec(b, evalFaulty1) }
func BenchmarkEvalFaultyVec2(b *testing.B) { benchVec(b, evalFaulty2) }
func BenchmarkEvalFaultyVec4(b *testing.B) { benchVec(b, evalFaulty4) }
func BenchmarkEvalFaultyVec8(b *testing.B) { benchVec(b, evalFaulty8) }
