package obs

// Log-bucketed latency histograms. Bucket boundaries are fixed powers of
// two in nanoseconds, so the *shape* of the histogram (which buckets
// exist, their edges, the quantile estimator) is machine- and
// worker-count-independent even though the fills are timing data. That
// split mirrors the metrics-table rule: anything timing-derived is gated
// behind -no-timing at render time, while the schema underneath stays
// deterministic and mergeable.
//
// A histogram is filled by the drivers after the fact — from per-job
// Elapsed/Phases fields on result structs, in job order — never from
// concurrent callbacks, so the disabled path costs nothing and the
// enabled path never perturbs kernel output.

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"time"
)

// NumBuckets is the fixed bucket count: bucket 0 holds zero (and
// negative, clamped) observations; bucket i for i in [1,64] holds
// durations v with 2^(i-1) <= v < 2^i nanoseconds.
const NumBuckets = 65

// Histogram is a fixed-edge log2 latency histogram. The zero value is
// ready to use. Not safe for concurrent mutation — fill from one
// goroutine in a deterministic order, like Metrics.
type Histogram struct {
	counts [NumBuckets]uint64
	sum    int64 // total observed nanoseconds
	count  uint64
}

// bucketIndex maps a duration to its bucket: bits.Len64 of the
// nanosecond count, which is 0 for zero and i for [2^(i-1), 2^i).
func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return bits.Len64(uint64(d))
}

// BucketUpper returns the inclusive upper bound of bucket i in
// nanoseconds: 0 for bucket 0, 2^i - 1 for i >= 1.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return int64(^uint64(0) >> 1) // clamp to MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one duration. Negative durations clamp to the zero
// bucket.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketIndex(d)]++
	if d > 0 {
		h.sum += int64(d)
	}
	h.count++
}

// Sum returns the total observed nanoseconds.
func (h *Histogram) Sum() int64 { return h.sum }

// Merge adds other's fills into h. Because edges are fixed, merging is
// index-wise addition and is associative and order-independent.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.sum += other.sum
	h.count += other.count
}

// Quantile returns the q-quantile (0 < q <= 1) as the inclusive upper
// bound of the bucket containing the ⌈q·count⌉-th observation. Returning
// a bucket edge rather than an interpolated value keeps the estimator a
// pure function of the bucket counts: two runs that fill the same
// buckets report the same quantiles. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	// The epsilon absorbs float error in q*count (0.07*100 evaluates to
	// 7.000000000000001, whose ceiling would be 8); it is far below any
	// genuine fractional rank at realistic counts.
	rank := uint64(math.Ceil(q*float64(h.count) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// Summary flattens the histogram into its serializable form.
func (h *Histogram) Summary() HistogramSummary {
	s := HistogramSummary{
		Count: h.count,
		SumNS: h.sum,
		P50NS: h.Quantile(0.50),
		P90NS: h.Quantile(0.90),
		P99NS: h.Quantile(0.99),
	}
	for i, c := range h.counts {
		if c != 0 {
			s.Buckets = append(s.Buckets, BucketCount{LeNS: BucketUpper(i), Count: c})
		}
	}
	return s
}

// BucketCount is one non-empty bucket of a summary: the inclusive upper
// bound in nanoseconds and the (non-cumulative) fill count.
type BucketCount struct {
	LeNS  int64  `json:"le_ns"`
	Count uint64 `json:"count"`
}

// HistogramSummary is the serialized histogram: sparse non-empty buckets
// plus precomputed deterministic quantiles. It is the schema of the
// report JSON's latency objects.
type HistogramSummary struct {
	Count   uint64        `json:"count"`
	SumNS   int64         `json:"sum_ns"`
	P50NS   int64         `json:"p50_ns"`
	P90NS   int64         `json:"p90_ns"`
	P99NS   int64         `json:"p99_ns"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// HistogramSet is a named collection of histograms, the latency analogue
// of Metrics. Not safe for concurrent mutation.
type HistogramSet struct {
	hists map[string]*Histogram
}

// NewHistogramSet returns an empty set.
func NewHistogramSet() *HistogramSet {
	return &HistogramSet{hists: make(map[string]*Histogram)}
}

// Observe records d into the named histogram, creating it on first use.
func (hs *HistogramSet) Observe(name string, d time.Duration) {
	h, ok := hs.hists[name]
	if !ok {
		h = &Histogram{}
		hs.hists[name] = h
	}
	h.Observe(d)
}

// Get returns the named histogram, nil if absent.
func (hs *HistogramSet) Get(name string) *Histogram {
	if hs == nil {
		return nil
	}
	return hs.hists[name]
}

// Len returns the number of histograms in the set.
func (hs *HistogramSet) Len() int {
	if hs == nil {
		return 0
	}
	return len(hs.hists)
}

// Names returns the histogram names, sorted.
func (hs *HistogramSet) Names() []string {
	if hs == nil {
		return nil
	}
	names := make([]string, 0, len(hs.hists))
	for k := range hs.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Merge adds every histogram of other into hs, creating names on demand.
func (hs *HistogramSet) Merge(other *HistogramSet) {
	if other == nil {
		return
	}
	for _, name := range other.Names() {
		h, ok := hs.hists[name]
		if !ok {
			h = &Histogram{}
			hs.hists[name] = h
		}
		h.Merge(other.hists[name])
	}
}

// Summaries flattens the set into name-keyed summaries for JSON output.
func (hs *HistogramSet) Summaries() map[string]HistogramSummary {
	if hs == nil || len(hs.hists) == 0 {
		return nil
	}
	out := make(map[string]HistogramSummary, len(hs.hists))
	for _, name := range hs.Names() {
		out[name] = hs.hists[name].Summary()
	}
	return out
}

// WriteTable renders the set as a latency table: one header row per
// histogram (count and quantiles), followed by indented rows for each
// non-empty bucket. Durations render via time.Duration formatting.
// Fills are timing data, so callers gate this exactly like the timing
// trailer; given identical fills the bytes are identical.
func (hs *HistogramSet) WriteTable(w io.Writer) error {
	names := hs.Names()
	width := len("latency")
	for _, n := range names {
		if len(n) > width {
			width = len(n)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  count  p50  p90  p99\n", width, "latency"); err != nil {
		return err
	}
	for _, n := range names {
		h := hs.hists[n]
		if _, err := fmt.Fprintf(w, "%-*s  %d  %v  %v  %v\n", width, n, h.count,
			time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.90)), time.Duration(h.Quantile(0.99))); err != nil {
			return err
		}
		for i, c := range h.counts {
			if c == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "  le %v: %d\n", time.Duration(BucketUpper(i)), c); err != nil {
				return err
			}
		}
	}
	return nil
}
