package fault

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/sim"
)

func compilePartition(t testing.TB, name string, lk int) (*netlist.Circuit, *partition.Result) {
	t.Helper()
	c, err := bench89.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Compile(context.Background(), c, core.DefaultOptions(lk, 1))
	if err != nil {
		t.Fatal(err)
	}
	return c, r.Partition
}

// renderAll renders every deterministic form of the report into one buffer.
func renderAll(t testing.TB, rep *CampaignReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	opts := RenderOptions{Undetected: true} // Timing off: deterministic
	if err := rep.WriteText(&buf, opts); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&buf, opts); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSV(&buf, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCampaignDeterministicAcrossWorkers is the determinism contract: for
// fixed options the rendered report (Timing off) is byte-identical across
// runs, across every worker count, AND across every packing width (capped
// through the unexported maxWords field). Run under
// -race this also exercises the shared-Segment concurrency claims.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	c, p := compilePartition(t, "s510", 8)
	opt := CampaignOptions{Seed: 7, Collapse: true, TriagePatterns: 64}
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		for _, lanes := range sim.LaneWordSizes {
			opt.Workers = workers
			opt.maxWords = lanes
			rep, err := Campaign(context.Background(), c, p, opt)
			if err != nil {
				t.Fatalf("workers=%d lanes=%d: %v", workers, lanes, err)
			}
			got := renderAll(t, rep)
			if want == nil {
				want = got
				// Same options, second run: run-to-run determinism.
				rep2, err := Campaign(context.Background(), c, p, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(renderAll(t, rep2), want) {
					t.Fatal("report differs between identical runs")
				}
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("report at workers=%d lanes=%d differs from workers=1 lanes=1", workers, lanes)
			}
		}
	}
}

// TestCampaignCoverageHigh pins the engine end to end: pseudo-exhaustive
// per-segment patterns must detect the vast majority of s510's faults, and
// the aggregate counters must be consistent.
func TestCampaignCoverageHigh(t *testing.T) {
	c, p := compilePartition(t, "s510", 8)
	rep, err := Campaign(context.Background(), c, p, CampaignOptions{Seed: 1, Workers: 4, Collapse: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ratio() < 0.9 {
		t.Fatalf("aggregate coverage %.3f too low", rep.Ratio())
	}
	if len(rep.Segments) != len(p.Clusters) {
		t.Fatalf("segments = %d, clusters = %d", len(rep.Segments), len(p.Clusters))
	}
	total, det, simulated := 0, 0, 0
	for _, sc := range rep.Segments {
		total += sc.Total
		det += sc.Detected
		simulated += sc.Simulated
		if sc.Detected+len(sc.Undetected) != sc.Total {
			t.Fatalf("cluster %d: detected %d + undetected %d != total %d",
				sc.Cluster, sc.Detected, len(sc.Undetected), sc.Total)
		}
	}
	if total != rep.Total || det != rep.Detected || simulated != rep.Simulated {
		t.Fatalf("aggregate mismatch: %d/%d/%d vs %d/%d/%d",
			total, det, simulated, rep.Total, rep.Detected, rep.Simulated)
	}
	if rep.Simulated >= rep.Total {
		t.Fatalf("collapse simulated %d of %d faults — no collapsing happened", rep.Simulated, rep.Total)
	}
}

// TestCampaignCollapseAgreement: with a full pseudo-exhaustive budget the
// collapsed and uncollapsed campaigns must agree on every verdict (that is
// the definition of fault equivalence).
func TestCampaignCollapseAgreement(t *testing.T) {
	c, p := compilePartition(t, "s27", 4)
	plain, err := Campaign(context.Background(), c, p, CampaignOptions{Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	collapsed, err := Campaign(context.Background(), c, p, CampaignOptions{Seed: 3, Workers: 2, Collapse: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Total != collapsed.Total {
		t.Fatalf("total %d vs %d", plain.Total, collapsed.Total)
	}
	// Sequential verdicts can shift slightly with the (deliberately
	// different) batch composition; combinational equivalence classes must
	// still keep the aggregate within one batch-session of each other.
	if d := plain.Detected - collapsed.Detected; d > 3 || d < -3 {
		t.Fatalf("collapsed detected %d, plain %d", collapsed.Detected, plain.Detected)
	}
	if collapsed.Simulated >= plain.Simulated {
		t.Fatalf("collapse did not shrink the simulated set: %d vs %d", collapsed.Simulated, plain.Simulated)
	}
}

// TestCampaignEarlyExitSkipsEscalation: when triage already detects every
// fault the escalation stage must not run a single batch.
func TestCampaignEarlyExitSkipsEscalation(t *testing.T) {
	c, p := compilePartition(t, "s510", 8)
	// Full-budget run first, to find the achievable coverage.
	full, err := Campaign(context.Background(), c, p, CampaignOptions{Seed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Escalation batches exist only for clusters with survivors and budget
	// beyond triage. With TriagePatterns at the full cap, stage two must
	// vanish entirely.
	rep, err := Campaign(context.Background(), c, p, CampaignOptions{
		Seed: 1, Workers: 2, TriagePatterns: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != rep.TriageBatches {
		t.Fatalf("escalation ran %d batches despite full-budget triage", rep.Batches-rep.TriageBatches)
	}
	if rep.Detected != full.Detected {
		t.Fatalf("full-triage detected %d, default %d", rep.Detected, full.Detected)
	}
}

// --- Satellite 5: fault-dropping edge cases ---

// constOne is a constant-1 output: SA1 on y is redundant (undetectable).
const constOne = `
INPUT(a)
OUTPUT(y)
na = NOT(a)
y = OR(a, na)
`

func TestBatchAllRedundantFaults(t *testing.T) {
	// A batch in which no lane can ever diverge must consume its budget
	// gracefully and report zero detections (no spurious early exit, no
	// hang: budget is finite).
	sg := wholeSegment(t, constOne)
	faults := []sim.Fault{{Signal: "y", Stuck1: true}, {Signal: "y", Stuck1: true}}
	cov, err := Simulate(sg, faults, Options{Seed: 1, MaxPatterns: 128})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Detected != 0 {
		t.Fatalf("redundant batch reported %d detections", cov.Detected)
	}
	if len(cov.Undetected) != len(faults) {
		t.Fatalf("undetected = %d, want %d", len(cov.Undetected), len(faults))
	}
}

func TestBatchAllRedundantWideBatch(t *testing.T) {
	// A wide batch (> 63 lanes) in which no lane can ever diverge: the
	// budget must drain without a session cutoff (the set spans multiple
	// one-word batches, so the cutoff gate is off) and every verdict must
	// match the one-word packing.
	sg := wholeSegment(t, constOne)
	faults := make([]sim.Fault, 100)
	for i := range faults {
		faults[i] = sim.Fault{Signal: "y", Stuck1: true}
	}
	for _, words := range []int{1, 4} {
		cov, err := Simulate(sg, faults, Options{Seed: 1, MaxPatterns: 128, maxWords: words})
		if err != nil {
			t.Fatal(err)
		}
		if cov.Detected != 0 {
			t.Fatalf("maxWords=%d: redundant wide batch reported %d detections", words, cov.Detected)
		}
		if len(cov.Undetected) != len(faults) {
			t.Fatalf("maxWords=%d: undetected = %d, want %d", words, len(cov.Undetected), len(faults))
		}
	}
}

func TestSegmentZeroOutputs(t *testing.T) {
	// A dangling gate forms a segment with no boundary outputs: nothing is
	// observable, so every fault survives, and the detection loop must not
	// index an empty output slice.
	c, err := netlist.ParseBenchString("z", `
INPUT(a)
OUTPUT(y)
y = BUF(a)
dangling = NOT(a)
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	var nodes, inputs []int
	for _, n := range g.Nodes {
		if g.IsCell(n.ID) && n.Name == "dangling" {
			nodes = append(nodes, n.ID)
			inputs = append(inputs, g.In[n.ID]...)
		}
	}
	if len(nodes) == 0 {
		t.Fatal("dangling cell not found")
	}
	zsg, err := sim.BuildSegment(c, g, nodes, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if zsg.NumOutputs() != 0 {
		t.Fatalf("outputs = %d, want 0", zsg.NumOutputs())
	}
	cov, err := Simulate(zsg, List(zsg), Options{Seed: 1, MaxPatterns: 16})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Detected != 0 {
		t.Fatalf("zero-output segment detected %d faults", cov.Detected)
	}
}

// errAfterCtx reports context.Canceled from Err after n polls, without any
// timing dependence — deterministic mid-batch cancellation.
type errAfterCtx struct {
	context.Context
	left atomic.Int64
}

func (c *errAfterCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestCancellationMidBatch(t *testing.T) {
	sg := wholeSegment(t, constOne) // redundant fault: never early-exits
	env := newBatchEnv(sg)
	defer env.release()
	ctx := &errAfterCtx{Context: context.Background()}
	ctx.left.Store(2) // survive the session-start poll, die at a mid-loop poll
	seed := uint64(12345)
	if _, err := env.engine(1); err != nil {
		t.Fatal(err)
	}
	err := env.runBatch(ctx, []sim.Fault{{Signal: "y", Stuck1: true}}, 1<<20, 0,
		func() uint64 { return seed }, false)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCampaignCancelled(t *testing.T) {
	c, p := compilePartition(t, "s27", 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Campaign(ctx, c, p, CampaignOptions{Seed: 1, Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCampaignElapsedAndWorkers sanity-checks the non-deterministic fields
// exist without leaking into the deterministic renders.
func TestCampaignElapsedAndWorkers(t *testing.T) {
	c, p := compilePartition(t, "s27", 4)
	rep, err := Campaign(context.Background(), c, p, CampaignOptions{Seed: 1, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 3 {
		t.Fatalf("workers = %d", rep.Workers)
	}
	if rep.Elapsed <= 0 || rep.Elapsed > time.Hour {
		t.Fatalf("elapsed = %v", rep.Elapsed)
	}
	var a, b bytes.Buffer
	if err := rep.WriteJSON(&a, RenderOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&b, RenderOptions{Timing: true}); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(a.Bytes(), []byte("elapsed_ms")) {
		t.Fatal("Timing:false leaked elapsed_ms")
	}
	if !bytes.Contains(b.Bytes(), []byte("elapsed_ms")) {
		t.Fatal("Timing:true missing elapsed_ms")
	}
}
