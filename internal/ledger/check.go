package ledger

// Regression triage over a record history: Metric resolves dotted metric
// names against a record, Diff compares two records field by field, and
// Check gates the latest run against the median of a baseline window —
// the `merced history diff|check` back end and the CI regression gate.

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Metric resolves a dotted metric name against the record:
//
//	wall                     WallNS
//	phase.<name>             PhasesNS entry (<name> from core.PhaseNames)
//	latency.<hist>.p50|p90|p99|count
//	                         Latency summary fields (latency.phase.<name>,
//	                         latency.sweep.job, latency.campaign.batch.*)
//	counter.<name>           Counters entry
//	gauge.<name>             Gauges entry
//
// phase.<name> and latency.phase.<name> share the one phase vocabulary.
// The second result is false when the record does not carry the metric.
func (r *Record) Metric(name string) (float64, bool) {
	switch {
	case name == "wall":
		return float64(r.WallNS), true
	case strings.HasPrefix(name, "phase."):
		v, ok := r.PhasesNS[strings.TrimPrefix(name, "phase.")]
		return float64(v), ok
	case strings.HasPrefix(name, "counter."):
		v, ok := r.Counters[strings.TrimPrefix(name, "counter.")]
		return float64(v), ok
	case strings.HasPrefix(name, "gauge."):
		v, ok := r.Gauges[strings.TrimPrefix(name, "gauge.")]
		return v, ok
	case strings.HasPrefix(name, "latency."):
		rest := strings.TrimPrefix(name, "latency.")
		dot := strings.LastIndexByte(rest, '.')
		if dot < 0 {
			return 0, false
		}
		// Histogram names themselves start with "latency.", so the full
		// key is the metric name minus the field suffix.
		hist, field := name[:len(name)-(len(rest)-dot)], rest[dot+1:]
		s, ok := r.Latency[hist]
		if !ok {
			return 0, false
		}
		switch field {
		case "p50":
			return float64(s.P50NS), true
		case "p90":
			return float64(s.P90NS), true
		case "p99":
			return float64(s.P99NS), true
		case "count":
			return float64(s.Count), true
		}
	}
	return 0, false
}

// MetricNames lists every metric name Metric can resolve on the record,
// sorted — the vocabulary `merced history diff` walks.
func (r *Record) MetricNames() []string {
	names := []string{"wall"}
	for k := range r.PhasesNS {
		names = append(names, "phase."+k)
	}
	for k := range r.Counters {
		names = append(names, "counter."+k)
	}
	for k := range r.Gauges {
		names = append(names, "gauge."+k)
	}
	for k := range r.Latency {
		for _, f := range []string{"p50", "p90", "p99", "count"} {
			names = append(names, k+"."+f)
		}
	}
	sort.Strings(names)
	return names
}

// DiffLine is one compared metric of a record pair.
type DiffLine struct {
	Name string
	A, B float64
	// OnlyA/OnlyB mark metrics present on one side only.
	OnlyA, OnlyB bool
}

// Delta returns the relative change from A to B in percent (+Inf-free:
// a zero baseline with a nonzero B reports 100%).
func (d DiffLine) Delta() float64 {
	if d.A == 0 {
		if d.B == 0 {
			return 0
		}
		return 100
	}
	return (d.B - d.A) / d.A * 100
}

// Diff compares two records metric by metric over the union of their
// vocabularies, sorted by name.
func Diff(a, b *Record) []DiffLine {
	names := map[string]bool{}
	for _, n := range a.MetricNames() {
		names[n] = true
	}
	for _, n := range b.MetricNames() {
		names[n] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	var out []DiffLine
	for _, n := range ordered {
		av, aok := a.Metric(n)
		bv, bok := b.Metric(n)
		out = append(out, DiffLine{Name: n, A: av, B: bv, OnlyA: aok && !bok, OnlyB: bok && !aok})
	}
	return out
}

// WriteDiff renders a diff as an aligned table, changed metrics marked.
func WriteDiff(w io.Writer, lines []DiffLine) error {
	width := len("metric")
	for _, d := range lines {
		if len(d.Name) > width {
			width = len(d.Name)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  %14s  %14s  %8s\n", width, "metric", "a", "b", "delta"); err != nil {
		return err
	}
	for _, d := range lines {
		mark := ""
		switch {
		case d.OnlyA:
			mark = "  (only a)"
		case d.OnlyB:
			mark = "  (only b)"
		case d.A != d.B:
			mark = "  *"
		}
		if _, err := fmt.Fprintf(w, "%-*s  %14.6g  %14.6g  %+7.1f%%%s\n",
			width, d.Name, d.A, d.B, d.Delta(), mark); err != nil {
			return err
		}
	}
	return nil
}

// CheckOptions tunes the regression gate.
type CheckOptions struct {
	// Window is the number of most recent prior runs the baseline median
	// is taken over; 0 means 5.
	Window int
	// ThresholdPct is the allowed regression in percent over the baseline
	// median; 0 means 25.
	ThresholdPct float64
	// Metrics names the gated metrics (Metric syntax); empty means
	// ["wall"].
	Metrics []string
	// MinRuns is the minimum history length (including the candidate)
	// required before the gate judges at all; 0 means 2. Shorter
	// histories pass vacuously — a gate cannot regress against nothing.
	MinRuns int
}

func (o *CheckOptions) normalize() {
	if o.Window <= 0 {
		o.Window = 5
	}
	if o.ThresholdPct <= 0 {
		o.ThresholdPct = 25
	}
	if len(o.Metrics) == 0 {
		o.Metrics = []string{"wall"}
	}
	if o.MinRuns <= 0 {
		o.MinRuns = 2
	}
}

// CheckResult is one gated metric's verdict.
type CheckResult struct {
	Metric string
	// Latest is the candidate run's value; Baseline the median of the
	// window.
	Latest, Baseline float64
	// DeltaPct is the relative change of Latest over Baseline in percent.
	DeltaPct float64
	// Regressed marks DeltaPct > ThresholdPct.
	Regressed bool
	// Skipped marks a metric absent from the candidate or from every
	// baseline run (e.g. gating a latency quantile on a history recorded
	// before histograms existed).
	Skipped bool
}

// CheckReport is the whole gate outcome.
type CheckReport struct {
	// Candidate is the judged (latest) record; Baseline counts the window
	// runs the medians were taken over. Vacuous marks a history shorter
	// than MinRuns, which passes without judging.
	Candidate *Record
	Baseline  int
	Vacuous   bool
	Results   []CheckResult
}

// Regressed reports whether any gated metric regressed.
func (c *CheckReport) Regressed() bool {
	for _, r := range c.Results {
		if r.Regressed {
			return true
		}
	}
	return false
}

// Write renders the gate outcome as one line per metric.
func (c *CheckReport) Write(w io.Writer) error {
	if c.Vacuous {
		_, err := fmt.Fprintf(w, "history check: %d run(s) on record — not enough history to judge, passing\n", c.Baseline+1)
		return err
	}
	for _, r := range c.Results {
		verdict := "ok"
		if r.Regressed {
			verdict = "REGRESSED"
		}
		if r.Skipped {
			if _, err := fmt.Fprintf(w, "history check: %-28s skipped (metric absent)\n", r.Metric); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "history check: %-28s latest %.6g vs median %.6g over %d run(s): %+.1f%% — %s\n",
			r.Metric, r.Latest, r.Baseline, c.Baseline, r.DeltaPct, verdict); err != nil {
			return err
		}
	}
	return nil
}

// Check judges the newest record of history (oldest-first, as History
// returns) against the median of up to Window prior runs.
func Check(history []*Record, opts CheckOptions) (*CheckReport, error) {
	opts.normalize()
	if len(history) == 0 {
		return nil, fmt.Errorf("ledger: check: empty history")
	}
	candidate := history[len(history)-1]
	prior := history[:len(history)-1]
	rep := &CheckReport{Candidate: candidate}
	if len(history) < opts.MinRuns {
		rep.Baseline = len(prior)
		rep.Vacuous = true
		return rep, nil
	}
	if len(prior) > opts.Window {
		prior = prior[len(prior)-opts.Window:]
	}
	rep.Baseline = len(prior)
	for _, name := range opts.Metrics {
		res := CheckResult{Metric: name}
		latest, ok := candidate.Metric(name)
		var base []float64
		for _, r := range prior {
			if v, vok := r.Metric(name); vok {
				base = append(base, v)
			}
		}
		if !ok || len(base) == 0 {
			res.Skipped = true
			rep.Results = append(rep.Results, res)
			continue
		}
		res.Latest = latest
		res.Baseline = median(base)
		if res.Baseline == 0 {
			res.DeltaPct = 0
			if latest > 0 {
				res.DeltaPct = 100
			}
		} else {
			res.DeltaPct = (latest - res.Baseline) / res.Baseline * 100
		}
		res.Regressed = res.DeltaPct > opts.ThresholdPct
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

// median returns the middle value (lower-middle on even counts) of vs.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}
