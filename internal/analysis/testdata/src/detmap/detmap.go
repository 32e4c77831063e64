// Package detmap exercises the detmap analyzer: range-over-map bodies
// that leak iteration order versus the sanctioned safe shapes.
package detmap

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
)

// collectSorted is the sanctioned idiom: collect keys, sort, iterate.
func collectSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectUnsorted leaks: the slice order is the map iteration order.
func collectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys in range over map without a later sort barrier`
	}
	return keys
}

// sortSlice accepts sort.Slice as a barrier too.
func sortSlice(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// localSortHelper: a package-local Sort*/sort* function over the slice is
// accepted as a barrier too (the lint package sorts diagnostics this way).
func localSortHelper(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

func sortKeys(keys []string) { sort.Strings(keys) }

// intCounters commute: order cannot change the result.
func intCounters(m map[string]int) (n, total int) {
	for _, v := range m {
		n++
		total += v
	}
	return n, total
}

// floatSum does not commute bit-for-bit: ULPs depend on order.
func floatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `sum \+= accumulates a non-commutative value in map iteration order`
	}
	return sum
}

// stringConcat is order-dependent.
func stringConcat(m map[string]string) string {
	var out string
	for _, v := range m {
		out += v // want `out \+= accumulates a non-commutative value in map iteration order`
	}
	return out
}

// setBuild writes keyed by the loop variable: converges regardless of order.
func setBuild(m map[int]int, seen map[int]bool, inv map[int]int) {
	for k, v := range m {
		seen[k] = true
		inv[v] = k
	}
}

// invariantWrite converges: every iteration writes the same value.
func invariantWrite(m map[int]int, owner map[int]int, id int) {
	for e := range m {
		owner[e] = id
	}
}

// lastWriterWins: a plain assignment of a loop value to outer state keeps
// whichever element the runtime visited last.
func lastWriterWins(m map[string]int) string {
	var chosen string
	for k := range m {
		chosen = k // want `assignment to chosen depends on map iteration order`
	}
	return chosen
}

// minReduce via the min builtin is order-independent.
func minReduce(m map[string]int) int {
	best := 1 << 30
	for _, v := range m {
		best = min(best, v)
	}
	return best
}

// emitDuringRange publishes output in iteration order.
func emitDuringRange(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `fmt.Fprintf writes loop-dependent output in map iteration order`
	}
}

// firstMatch returns whichever matching element the runtime visits first.
func firstMatch(m map[string]int) string {
	for k, v := range m {
		if v > 10 {
			return k // want `returns a value that depends on which map element is visited first`
		}
	}
	return ""
}

// seededDraw hands each key whichever draw comes next: a seeded generator
// still leaks the map order (the verify stimulus bug).
func seededDraw(m map[int]bool, rng *rand.Rand) map[int]int {
	in := make(map[int]int, len(m))
	for k := range m {
		in[k] = rng.Intn(2) // want `rng.Intn draws from a generator in map iteration order`
	}
	return in
}

// suppressedSite is allowlisted with a reason: no diagnostic.
func suppressedSite(m map[string]int) string {
	var chosen string
	//detlint:ordered any element is acceptable here; callers treat the choice as arbitrary
	for k := range m {
		chosen = k
	}
	return chosen
}

// bareSuppression carries no reason: the directive itself is flagged.
func bareSuppression(m map[string]int) string {
	var chosen string
	//detlint:ordered // want `directive needs a reason`
	for k := range m {
		chosen = k
	}
	return chosen
}
