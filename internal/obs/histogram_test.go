package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestBucketIndexEdges(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {time.Second, 30},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestBucketUpperContainsBucket(t *testing.T) {
	for i := 1; i < 64; i++ {
		lo := time.Duration(1) << uint(i-1)
		hi := time.Duration(BucketUpper(i))
		if bucketIndex(lo) != i || bucketIndex(hi) != i {
			t.Fatalf("bucket %d: lo=%d hi=%d map to %d/%d", i, lo, hi, bucketIndex(lo), bucketIndex(hi))
		}
		if i < 63 && bucketIndex(hi+1) != i+1 {
			t.Fatalf("bucket %d upper+1 should land in next bucket", i)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 90 fills in [1024,2047] (bucket 11), 10 fills in [1<<20, ...] (bucket 21).
	for i := 0; i < 90; i++ {
		h.Observe(1500 * time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Duration(1 << 20))
	}
	if got := h.Quantile(0.50); got != BucketUpper(11) {
		t.Errorf("p50 = %d, want %d", got, BucketUpper(11))
	}
	if got := h.Quantile(0.90); got != BucketUpper(11) {
		t.Errorf("p90 = %d, want %d", got, BucketUpper(11))
	}
	if got := h.Quantile(0.99); got != BucketUpper(21) {
		t.Errorf("p99 = %d, want %d", got, BucketUpper(21))
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	wantSum := int64(90*1500 + 10*(1<<20))
	if h.Sum() != wantSum {
		t.Errorf("sum = %d, want %d", h.Sum(), wantSum)
	}
}

// Quantile must pick the ⌈q·count⌉-th observation. With the first `low`
// observations in a low bucket and the rest in a high one, rank r is the
// first high observation when low = r-1 and the last low one when low = r,
// which pins the rank exactly.
func TestHistogramQuantileRankIsCeiling(t *testing.T) {
	split := func(count, low int) *Histogram {
		var h Histogram
		for i := 0; i < count; i++ {
			if i < low {
				h.Observe(1)
			} else {
				h.Observe(1 << 20)
			}
		}
		return &h
	}
	lo, hi := BucketUpper(1), BucketUpper(21)
	cases := []struct {
		count int
		q     float64
		rank  int
	}{
		{1, 0.5, 1}, {1, 0.99, 1},
		{2, 0.5, 1}, {2, 0.51, 2},
		{3, 0.5, 2}, {3, 0.9, 3}, {3, 0.99, 3}, {3, 1, 3},
		{4, 0.25, 1}, {4, 0.5, 2}, {4, 0.75, 3}, {4, 0.76, 4},
		{10, 0.9, 9}, {10, 0.91, 10},
		{100, 0.07, 7}, // 0.07*100 == 7.000000000000001 in float64
		{100, 0.29, 29}, {100, 0.57, 57},
	}
	for _, c := range cases {
		if got := split(c.count, c.rank-1).Quantile(c.q); got != hi {
			t.Errorf("count=%d q=%v: rank below %d (got bucket edge %d)", c.count, c.q, c.rank, got)
		}
		if got := split(c.count, c.rank).Quantile(c.q); got != lo {
			t.Errorf("count=%d q=%v: rank above %d (got bucket edge %d)", c.count, c.q, c.rank, got)
		}
	}
}

func TestHistogramMergeOrderIndependent(t *testing.T) {
	fillA := func(h *Histogram) {
		h.Observe(100)
		h.Observe(5000)
	}
	fillB := func(h *Histogram) {
		h.Observe(0)
		h.Observe(1 << 30)
	}
	var ab, ba, direct Histogram
	var a1, b1, a2, b2 Histogram
	fillA(&a1)
	fillB(&b1)
	ab.Merge(&a1)
	ab.Merge(&b1)
	fillA(&a2)
	fillB(&b2)
	ba.Merge(&b2)
	ba.Merge(&a2)
	fillA(&direct)
	fillB(&direct)
	if ab != ba || ab != direct {
		t.Fatal("merge is not order-independent")
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{0, 1, 3, 1000, 1 << 20, 1 << 40} {
		h.Observe(d)
	}
	s := h.Summary()
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back HistogramSummary
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	h2 := back.Histogram()
	if *h2 != h {
		t.Fatalf("round trip mismatch:\n %+v\n %+v", h, *h2)
	}
	if s.P50NS != h.Quantile(0.5) || s.P99NS != h.Quantile(0.99) {
		t.Fatal("summary quantiles disagree with histogram")
	}
}

func TestHistogramSetTableDeterministic(t *testing.T) {
	render := func(order []string) string {
		hs := NewHistogramSet()
		for _, n := range order {
			hs.Observe(n, 1500*time.Nanosecond)
			hs.Observe(n, 2*time.Millisecond)
		}
		var buf bytes.Buffer
		if err := hs.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := render([]string{"latency.phase.parse", "latency.sweep.job", "latency.phase.retime"})
	b := render([]string{"latency.sweep.job", "latency.phase.retime", "latency.phase.parse"})
	if a != b {
		t.Fatalf("table depends on fill order:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "latency.phase.parse") || !strings.Contains(a, "p99") {
		t.Fatalf("unexpected table:\n%s", a)
	}
	lines := strings.Split(strings.TrimRight(a, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "latency") {
		t.Fatalf("missing header: %q", lines[0])
	}
}

func TestHistogramSetMerge(t *testing.T) {
	a, b := NewHistogramSet(), NewHistogramSet()
	a.Observe("x", 100)
	b.Observe("x", 100)
	b.Observe("y", 5000)
	a.Merge(b)
	if a.Get("x").Count() != 2 || a.Get("y").Count() != 1 {
		t.Fatalf("merge miscounted: %v", a.Summaries())
	}
	if got := a.Names(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("names = %v", got)
	}
}
