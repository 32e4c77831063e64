package sweep

// Tests for the shard/merge protocol: the reassembled report must be
// byte-identical to the unsharded run, empty shards must merge cleanly,
// and mismatched shard sets must be refused.

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netlist"
)

// failLKCompile is a CompileFunc that fails every job at the given lk and
// delegates the rest to core.Compile on a freshly loaded circuit (Compile
// normalizes its circuit in place, so it must not see the shared one).
func failLKCompile(lk int) CompileFunc {
	return func(ctx context.Context, c *netlist.Circuit, opt core.Options) (*core.Result, error) {
		if opt.LK == lk {
			return nil, errors.New("injected failure")
		}
		fresh, err := LoadCircuit(c.Name)
		if err != nil {
			return nil, err
		}
		return core.Compile(ctx, fresh, opt)
	}
}

func shardUniverse() []Job {
	return []Job{
		{Circuit: "s27", LK: 3, Beta: 50, Seed: 1},
		{Circuit: "s27", LK: 4, Beta: 50, Seed: 1},
		{Circuit: "s27", LK: 3, Beta: 25, Seed: 2},
		{Circuit: "s27", LK: 4, Beta: 25, Seed: 2},
		{Circuit: "s27", LK: 5, Beta: 50, Seed: 1},
	}
}

// runShards executes the universe split n ways and returns the shard
// documents after a JSON round-trip (exactly what merced merge consumes).
func runShards(t *testing.T, universe []Job, n int, out ShardOutput) []*ShardReport {
	t.Helper()
	var shards []*ShardReport
	for i := 1; i <= n; i++ {
		sh := Shard{Index: i, Count: n}
		jobs, globals := sh.Select(universe)
		rep, err := Run(context.Background(), jobs, Config{Workers: 2})
		if err != nil {
			t.Fatalf("shard %s: %v", sh, err)
		}
		var buf bytes.Buffer
		if err := BuildShardReport(sh, universe, globals, rep, ShardConfig{}, out).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		sr, err := ReadShardReport(&buf)
		if err != nil {
			t.Fatalf("shard %s round-trip: %v", sh, err)
		}
		shards = append(shards, sr)
	}
	return shards
}

func TestParseShard(t *testing.T) {
	sh, err := ParseShard("2/3")
	if err != nil || sh != (Shard{Index: 2, Count: 3}) {
		t.Fatalf("ParseShard(2/3) = %+v, %v", sh, err)
	}
	for _, bad := range []string{"", "3", "0/4", "5/4", "-1/4", "a/b", "1/0"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

func TestShardSelectPartitions(t *testing.T) {
	universe := shardUniverse()
	const n = 3
	seen := make([]bool, len(universe))
	for i := 1; i <= n; i++ {
		jobs, globals := (Shard{Index: i, Count: n}).Select(universe)
		if len(jobs) != len(globals) {
			t.Fatalf("shard %d: %d jobs, %d globals", i, len(jobs), len(globals))
		}
		for k, g := range globals {
			if seen[g] {
				t.Fatalf("universe job %d selected twice", g)
			}
			seen[g] = true
			if jobs[k] != universe[g] {
				t.Fatalf("shard %d slot %d: job %v != universe[%d] %v", i, k, jobs[k], g, universe[g])
			}
		}
	}
	for g, ok := range seen {
		if !ok {
			t.Fatalf("universe job %d never selected", g)
		}
	}
}

func TestMergeMatchesUnshardedRun(t *testing.T) {
	universe := shardUniverse()
	full, err := Run(context.Background(), universe, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"json", "csv", "text"} {
		out := ShardOutput{Format: format, NoTiming: true}
		merged, gotOut, err := MergeShards(runShards(t, universe, 3, out))
		if err != nil {
			t.Fatal(err)
		}
		if gotOut != out {
			t.Fatalf("merge returned output %+v, want %+v", gotOut, out)
		}
		var want, got bytes.Buffer
		render := func(rep *Report, w *bytes.Buffer) {
			var rerr error
			switch format {
			case "json":
				rerr = rep.WriteJSON(w, out.RenderOptions())
			case "csv":
				rerr = rep.WriteCSV(w, out.RenderOptions())
			default:
				rerr = rep.WriteText(w, out.RenderOptions())
			}
			if rerr != nil {
				t.Fatal(rerr)
			}
		}
		render(full, &want)
		render(merged, &got)
		if want.String() != got.String() {
			t.Errorf("%s: merged report differs from unsharded run:\n--- unsharded ---\n%s--- merged ---\n%s", format, want.String(), got.String())
		}
	}
}

// TestMergeShardDocumentsDeterministic: under no_timing the shard files
// themselves are byte-identical across runs (what CI diffs rely on).
func TestShardDocumentsDeterministic(t *testing.T) {
	universe := shardUniverse()
	out := ShardOutput{Format: "json", NoTiming: true}
	render := func() string {
		var b strings.Builder
		for _, sr := range runShards(t, universe, 2, out) {
			var buf bytes.Buffer
			if err := sr.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			b.WriteString(buf.String())
		}
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatal("shard documents differ between identical runs")
	}
}

func TestEmptyShardsMergeCleanly(t *testing.T) {
	universe := shardUniverse()[:2]
	const n = 5 // more shards than jobs: shards 3..5 are empty
	shards := runShards(t, universe, n, ShardOutput{Format: "json", NoTiming: true})
	for i := 2; i < n; i++ {
		if len(shards[i].Jobs) != 0 {
			t.Fatalf("shard %d carries %d jobs, want 0", i+1, len(shards[i].Jobs))
		}
	}
	merged, _, err := MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Jobs) != len(universe) || merged.Stats.Jobs != len(universe) {
		t.Fatalf("merged %d jobs, want %d", len(merged.Jobs), len(universe))
	}
	if merged.FirstErr() != nil {
		t.Fatal(merged.FirstErr())
	}
}

func TestMergeValidation(t *testing.T) {
	universe := shardUniverse()
	out := ShardOutput{Format: "json", NoTiming: true}
	shards := runShards(t, universe, 3, out)

	if _, _, err := MergeShards(nil); err == nil {
		t.Error("merged zero shards")
	}
	if _, _, err := MergeShards(shards[:2]); err == nil || !strings.Contains(err.Error(), "missing indices [3]") {
		t.Errorf("incomplete set: err = %v", err)
	}
	if _, _, err := MergeShards([]*ShardReport{shards[0], shards[0], shards[1]}); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate shard: err = %v", err)
	}

	// A shard cut from a different universe must be refused.
	other := runShards(t, universe[:4], 3, out)
	mixed := []*ShardReport{shards[0], shards[1], other[2]}
	if _, _, err := MergeShards(mixed); err == nil || !strings.Contains(err.Error(), "different universe") {
		t.Errorf("universe mismatch: err = %v", err)
	}

	// A shard run under a different config must be refused.
	bad := *shards[2]
	bad.Config.MaxPatterns = 16384
	if _, _, err := MergeShards([]*ShardReport{shards[0], shards[1], &bad}); err == nil || !strings.Contains(err.Error(), "different config") {
		t.Errorf("config mismatch: err = %v", err)
	}
}

// TestReadShardReportRejectsOtherVersion: a document written by a build
// that speaks another shard format is refused at read, naming both
// versions, before any merge sees it.
func TestReadShardReportRejectsOtherVersion(t *testing.T) {
	shards := runShards(t, shardUniverse()[:1], 1, ShardOutput{Format: "json", NoTiming: true})
	old := *shards[0]
	old.V = 3
	var buf bytes.Buffer
	if err := old.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"v": 3,`) {
		t.Fatalf("fixture does not carry v 3:\n%s", buf.String())
	}
	_, err := ReadShardReport(&buf)
	if err == nil || !strings.Contains(err.Error(), "shard report version 3 (this build speaks 4)") {
		t.Fatalf("v3 document: err = %v, want the version mismatch", err)
	}
}

// TestMergeRejectsBadUniverseJobs: the universe size a shard document
// declares must be checked against its job entries before it sizes the
// merge, so a negative or inflated count is an error, not a panic or a
// huge allocation.
func TestMergeRejectsBadUniverseJobs(t *testing.T) {
	universe := shardUniverse()
	out := ShardOutput{Format: "json", NoTiming: true}
	for _, jobs := range []int{-1, 1 << 50, len(universe) + 1, len(universe) - 1} {
		shards := runShards(t, universe, 2, out)
		for _, sr := range shards {
			sr.Universe.Jobs = jobs
		}
		if _, _, err := MergeShards(shards); err == nil || !strings.Contains(err.Error(), "job entries") {
			t.Errorf("universe.jobs = %d: err = %v", jobs, err)
		}
	}
}

// TestMergePreservesJobErrors: a failed job's error string survives the
// shard round-trip, renders identically to the unsharded run, and keeps
// the merged report's exit-1 contract (FirstErr non-nil).
func TestMergePreservesJobErrors(t *testing.T) {
	universe := shardUniverse()
	failing := failLKCompile(4)
	out := ShardOutput{Format: "json", NoTiming: true}

	full, err := Run(context.Background(), universe, Config{Workers: 1, Compile: failing})
	if err != nil {
		t.Fatal(err)
	}
	var shards []*ShardReport
	for i := 1; i <= 2; i++ {
		sh := Shard{Index: i, Count: 2}
		jobs, globals := sh.Select(universe)
		rep, err := Run(context.Background(), jobs, Config{Workers: 1, Compile: failing})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := BuildShardReport(sh, universe, globals, rep, ShardConfig{}, out).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		sr, err := ReadShardReport(&buf)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sr)
	}
	merged, _, err := MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	if merged.FirstErr() == nil {
		t.Fatal("merged report lost the job failures")
	}
	var want, got bytes.Buffer
	if err := full.WriteJSON(&want, out.RenderOptions()); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteJSON(&got, out.RenderOptions()); err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Fatalf("merged report with failures differs:\n--- unsharded ---\n%s--- merged ---\n%s", want.String(), got.String())
	}
}
