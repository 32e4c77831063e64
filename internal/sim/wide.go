package sim

// This file holds the lane-width vocabulary of the wide fault-simulation
// kernel: the same level-ordered op-record program as program.go,
// evaluated over [W]uint64 vector words (wide_unroll.go) instead of a
// single uint64. One vector of W machine words carries 64*W bit-parallel
// lanes — lane 0
// is the fault-free machine, lanes 1..BatchLanes(W) each carry one
// injected stuck-at fault — so a W=4 batch simulates 255 faults per
// pattern. The interpreter overhead per gate (opcode dispatch, operand
// index loads, bounds checks) is paid once per W words instead of once
// per word, which is where the per-lane throughput scales.
//
// The fault-free scalar kernel in program.go stays for Evaluator and the
// VCD writer, which view state as []uint64.

// LanesPerWord is the number of fault lanes a single uint64 word carries:
// 63, because lane 0 of the first word is reserved for the fault-free
// machine.
const LanesPerWord = 63

// MaxLaneWords is the widest supported lane vector, in 64-bit words.
const MaxLaneWords = 8

// LaneWordSizes lists the supported lane-vector widths in words. Power-of-
// two widths keep the generic kernel instantiations aligned with the
// hardware vector registers (1 word scalar, 2 = 128-bit, 4 = 256-bit AVX2,
// 8 = 512-bit).
var LaneWordSizes = []int{1, 2, 4, 8}

// ValidLaneWords reports whether words is a supported lane-vector width.
func ValidLaneWords(words int) bool {
	switch words {
	case 1, 2, 4, 8:
		return true
	}
	return false
}

// BatchLanes returns the number of fault lanes a words-wide batch carries:
// 64*words - 1 (lane 0 is the fault-free machine).
func BatchLanes(words int) int { return 64*words - 1 }

// FitLaneWords returns the narrowest supported width (capped at maxWords)
// whose batch capacity holds n faults. Packing a partial final batch at
// the narrowest width that fits avoids cycling empty words: detection
// verdicts are width-invariant (see LaneEngine), so the choice is pure
// throughput.
func FitLaneWords(n, maxWords int) int {
	for _, w := range LaneWordSizes {
		if w >= maxWords {
			break
		}
		if n <= BatchLanes(w) {
			return w
		}
	}
	return maxWords
}

// lanevec constrains laneEngine to the supported lane-vector shapes. Array
// types keep the element count a compile-time constant per instantiation,
// and each shape has its hand-unrolled kernel in wide_unroll.go.
type lanevec interface {
	[1]uint64 | [2]uint64 | [4]uint64 | [8]uint64
}
