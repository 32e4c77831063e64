package sweep

import (
	"bytes"
	"context"
	"io"
	"testing"
)

// FuzzMergeShards drives arbitrary bytes through the `merced merge` path:
// ReadShardReport, MergeShards and the render of the merged report. None
// of them may panic on a document that decodes. jobs replaces the
// document's universe.jobs before the merge (ReadShardReport accepts any
// integer there), so the engine's integer mutators reach the one field
// that sizes the merge. The corpus is seeded from real `-shard 1/1`
// documents, with and without timing and coverage.
func FuzzMergeShards(f *testing.F) {
	universe := shardUniverse()[:2]
	sh := Shard{Index: 1, Count: 1}
	jobs, globals := sh.Select(universe)
	for _, cov := range []bool{false, true} {
		rep, err := Run(context.Background(), jobs, Config{Workers: 1, Coverage: cov, CoverageMaxPatterns: 64})
		if err != nil {
			f.Fatal(err)
		}
		for _, out := range []ShardOutput{
			{Format: "json", NoTiming: true, Metrics: true},
			{Format: "text", CacheStats: true},
		} {
			var buf bytes.Buffer
			cfg := ShardConfig{Coverage: cov, MaxPatterns: 64}
			if err := BuildShardReport(sh, universe, globals, rep, cfg, out).WriteJSON(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes(), len(universe))
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte, jobs int) {
		sr, err := ReadShardReport(bytes.NewReader(doc))
		if err != nil {
			return
		}
		sr.Universe.Jobs = jobs
		rep, out, err := MergeShards([]*ShardReport{sr})
		if err != nil {
			return
		}
		opts := out.RenderOptions()
		for _, write := range []func(io.Writer, RenderOptions) error{rep.WriteJSON, rep.WriteCSV, rep.WriteText} {
			if err := write(io.Discard, opts); err != nil {
				t.Fatalf("merged report does not render: %v", err)
			}
		}
	})
}
