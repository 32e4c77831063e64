package fault

// Observability-contract tests for the campaign engine: tracing must not
// change the report, the campaign.* metrics must be identical for any
// worker count, and the progress callback must fire once per batch.

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Tracing is a pure side channel: the report is byte-identical with a live
// recorder, and a multi-worker pool registers one lane per worker while a
// single-worker pool stays on the caller's lane.
func TestCampaignTracedByteIdentical(t *testing.T) {
	ins := obsCampaigns(t)
	for _, in := range ins {
		plain, err := Campaign(context.Background(), in.c, in.p, in.opt)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder()
		traced, err := Campaign(obs.With(context.Background(), rec, 0), in.c, in.p, in.opt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderAll(t, plain), renderAll(t, traced)) {
			t.Fatalf("%s: report differs with tracing enabled", in.name)
		}
		// Whole-campaign span plus one span per batch.
		if want := 1 + traced.Batches; rec.Len() != want {
			t.Errorf("%s: recorded %d spans, want %d (1 campaign + %d batches)", in.name, rec.Len(), want, traced.Batches)
		}
		workerLanes := 0
		for _, name := range rec.LaneNames() {
			if len(name) > 16 && name[:16] == "campaign-worker-" {
				workerLanes++
			}
		}
		if workerLanes == 0 {
			t.Errorf("%s: no campaign-worker lanes registered: %v", in.name, rec.LaneNames())
		}
	}

	// Workers == 1: batches stay on the caller's lane (lane inheritance for
	// campaigns embedded in sweep jobs).
	rec1 := obs.NewRecorder()
	in := ins[0]
	opt := in.opt
	opt.Workers = 1
	if _, err := Campaign(obs.With(context.Background(), rec1, 0), in.c, in.p, opt); err != nil {
		t.Fatal(err)
	}
	if names := rec1.LaneNames(); len(names) != 1 || names[0] != "main" {
		t.Errorf("single-worker campaign registered extra lanes: %v", names)
	}
}

// The campaign.* metrics are a pure function of the (deterministic) report,
// so the rendered table is identical for any worker count.
func TestCampaignMetricsAcrossWorkers(t *testing.T) {
	c, p := compilePartition(t, "s510", 8)
	opt := CampaignOptions{Seed: 7, Collapse: true, TriagePatterns: 64}
	render := func(workers int) (string, *CampaignReport) {
		opt.Workers = workers
		rep, err := Campaign(context.Background(), c, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Metrics().WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), rep
	}
	base, rep := render(1)
	for _, workers := range []int{2, 8} {
		if got, _ := render(workers); got != base {
			t.Errorf("metrics table differs at workers=%d:\n--- workers=1\n%s\n--- variant\n%s", workers, base, got)
		}
	}
	// The stage-boundary counters must be internally consistent.
	if rep.TriageDetected > rep.Detected {
		t.Errorf("TriageDetected %d > Detected %d", rep.TriageDetected, rep.Detected)
	}
	if rep.Survivors == 0 && rep.Batches > rep.TriageBatches {
		t.Error("escalation batches exist but Survivors == 0")
	}
	if rep.Unexcited == 0 || rep.Unexcited > rep.Survivors {
		t.Errorf("Unexcited %d, want in 1..Survivors (%d)", rep.Unexcited, rep.Survivors)
	}
	m := rep.Metrics()
	if m.Counters["campaign.batches"] != int64(rep.Batches) {
		t.Errorf("campaign.batches = %d, want %d", m.Counters["campaign.batches"], rep.Batches)
	}
	if m.Counters["campaign.triage_detected"] != int64(rep.TriageDetected) {
		t.Errorf("campaign.triage_detected = %d, want %d", m.Counters["campaign.triage_detected"], rep.TriageDetected)
	}
	if m.Counters["campaign.unexcited"] != int64(rep.Unexcited) {
		t.Errorf("campaign.unexcited = %d, want %d", m.Counters["campaign.unexcited"], rep.Unexcited)
	}
}

// Progress fires once per batch, cumulatively, with a total that grows
// exactly once when the escalation stage is packed.
func TestCampaignProgressCountsBatches(t *testing.T) {
	for _, in := range obsCampaigns(t) {
		var mu sync.Mutex
		calls, maxDone, lastTotal, totalGrowths := 0, 0, 0, 0
		opt := in.opt
		opt.Progress = func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if done > maxDone {
				maxDone = done
			}
			if total < lastTotal {
				t.Errorf("%s: total shrank: %d after %d", in.name, total, lastTotal)
			}
			if total > lastTotal && lastTotal != 0 {
				totalGrowths++
			}
			lastTotal = total
		}
		rep, err := Campaign(context.Background(), in.c, in.p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if calls != rep.Batches || maxDone != rep.Batches {
			t.Errorf("%s: progress calls = %d, max done = %d, want %d", in.name, calls, maxDone, rep.Batches)
		}
		if lastTotal != rep.Batches {
			t.Errorf("%s: final total = %d, want %d", in.name, lastTotal, rep.Batches)
		}
		// The total is allowed to change exactly once: when the
		// escalation stage is packed and appended to the triage total.
		// Wide batches and chained batches must not make it drift.
		if wantGrowths := 0; rep.Batches > rep.TriageBatches {
			wantGrowths = 1
			if totalGrowths != wantGrowths {
				t.Errorf("%s: total grew %d times, want exactly %d (at escalation packing)", in.name, totalGrowths, wantGrowths)
			}
		} else if totalGrowths != 0 {
			t.Errorf("%s: total grew %d times with no escalation stage", in.name, totalGrowths)
		}
	}
}

// obsCampaign is one input of the observability tests.
type obsCampaign struct {
	name string
	c    *netlist.Circuit
	p    *partition.Result
	opt  CampaignOptions
}

// obsCampaigns returns s510 @ 8, whose escalated sets all run the
// excitation pre-pass, and part of the fixture of
// TestCampaignPendingChain, whose session-layout sets run chains of one
// and two batches and, for E, one batch that hands out no lane.
func obsCampaigns(t *testing.T) []obsCampaign {
	c, p := compilePartition(t, "s510", 8)
	pc, pp := prefixPartition(t, pendingCircuit("A_", 40, 10)+pendingCircuit("C_", 0, 70)+
		pendingCircuit("D_", 10, 5)+quietCircuit("E_", 70))
	return []obsCampaign{
		{"s510@8", c, p, CampaignOptions{Seed: 7, Workers: 4, Collapse: true, TriagePatterns: 64}},
		{"pending", pc, pp, CampaignOptions{MaxPatterns: 1024, Seed: 1, Workers: 4, Collapse: true, TriagePatterns: 16}},
	}
}
