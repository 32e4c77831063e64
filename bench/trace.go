package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans are recorded by the benchmark around its own calls; nothing inside
// the program is instrumented.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	// Op is the op the span belongs to; -1 marks a once-per-run probe.
	Op      int   `json:"op"`
	ID      int   `json:"id"`
	Parent  int   `json:"parent"` // -1 for a root span
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps the spans of one run in memory. It is used from the op
// loop's goroutine only: the calls it wraps may fan out internally, but the
// benchmark itself calls them one at a time.
type tracer struct {
	workload string
	origin   time.Time
	op       int
	spans    []span
	stack    []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now(), op: -1}
}

// opSpan names the root span of each traced op; checkSpan names the span
// around the benchmark's own output check.
const (
	opSpan    = "op"
	checkSpan = "bench.check"
)

// do runs fn inside a span named name, nested under the innermost open
// span, and returns the span's duration. A nil tracer runs fn untraced and
// returns a zero duration.
func (t *tracer) do(name string, fn func() error) (time.Duration, error) {
	if t == nil {
		return 0, fn()
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Op: t.op, ID: id, Parent: parent,
		StartNS: int64(time.Since(t.origin))})
	t.stack = append(t.stack, id)
	err := fn()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].EndNS = int64(time.Since(t.origin))
	return t.spans[id].dur(), err
}

// selfTimes returns each span name's total self time: the span's duration
// minus the part covered by its children.
func selfTimes(spans []span) map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += s.dur()
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= s.dur()
		}
	}
	return self
}

// layerReport is the layers.json document: self time per span name over the
// run's traced ops, and how much of the ops' wall time no layer span covers.
type layerReport struct {
	Workload string             `json:"workload"`
	Ops      int                `json:"traced_ops"`
	OpS      float64            `json:"op_s"`
	SelfS    map[string]float64 `json:"self_s"`
	// UnattributedPct is the op root spans' self time as a share of their
	// wall time: the part of an op spent outside every layer call.
	UnattributedPct float64 `json:"unattributed_pct"`
}

func (t *tracer) layers() layerReport {
	rep := layerReport{Workload: t.workload, SelfS: make(map[string]float64)}
	for name, d := range selfTimes(t.spans) {
		rep.SelfS[name] = d.Seconds()
	}
	for _, s := range t.spans {
		if s.Name == opSpan {
			rep.Ops++
			rep.OpS += s.dur().Seconds()
		}
	}
	if rep.OpS > 0 {
		rep.UnattributedPct = 100 * rep.SelfS[opSpan] / rep.OpS
	}
	return rep
}

// write stores spans.json (spans in start order, as do records them) and
// layers.json in dir.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name string
		v    any
	}{{"spans.json", t.spans}, {"layers.json", t.layers()}}
	for _, f := range files {
		b, err := json.MarshalIndent(f.v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, f.name), append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return nil
}
