package jobspec

// Tests for jobspec v1 sweep.shard: field-path validation of invalid
// specs, and the end-to-end property that N sharded Runs plus a merge
// reproduce the unsharded Run byte for byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sweep"
)

func TestShardValidateFieldPaths(t *testing.T) {
	cases := []struct {
		shard string
		path  string
	}{
		{`{"index":0,"count":4}`, "sweep.shard.index"}, // the CLI's "0/4"
		{`{"index":5,"count":4}`, "sweep.shard.index"}, // the CLI's "5/4"
		{`{"index":-1,"count":4}`, "sweep.shard.index"},
		{`{"index":1,"count":0}`, "sweep.shard.count"},
		{`{"index":1,"count":-3}`, "sweep.shard.count"},
	}
	for _, tc := range cases {
		src := fmt.Sprintf(`{"v":1,"kind":"sweep","sweep":{"circuits":["s27"],"shard":%s}}`, tc.shard)
		_, err := parseSpec(strings.NewReader(src))
		if err == nil {
			t.Errorf("parseSpec(shard=%s) succeeded; want error at %s", tc.shard, tc.path)
			continue
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("parseSpec(shard=%s) error %T is not a *FieldError", tc.shard, err)
			continue
		}
		if fe.Path != tc.path {
			t.Errorf("parseSpec(shard=%s) error path = %q; want %q", tc.shard, fe.Path, tc.path)
		}
	}
	// A valid shard passes.
	if _, err := parseSpec(strings.NewReader(
		`{"v":1,"kind":"sweep","sweep":{"circuits":["s27"],"shard":{"index":4,"count":4}}}`)); err != nil {
		t.Errorf("valid shard rejected: %v", err)
	}
}

// TestRunShardedMergesToUnsharded drives the whole protocol through the
// jobspec funnel: three sharded Runs emit shard documents, MergeShards
// reassembles them, and the rendered bytes equal the unsharded Run.
func TestRunShardedMergesToUnsharded(t *testing.T) {
	base := `"sweep":{"circuits":["s27"],"lks":[3,4,5],"seeds":[1,2],"workers":2%s},
		"output":{"format":"csv","no_timing":true}`
	var want bytes.Buffer
	spec := parse(t, fmt.Sprintf(`{"v":1,"kind":"sweep",`+base+`}`, ""))
	if err := Run(context.Background(), spec, &want, Runtime{}); err != nil {
		t.Fatalf("unsharded Run: %v", err)
	}

	const n = 3
	var shards []*sweep.ShardReport
	for i := 1; i <= n; i++ {
		shardJSON := fmt.Sprintf(`,"shard":{"index":%d,"count":%d}`, i, n)
		spec := parse(t, fmt.Sprintf(`{"v":1,"kind":"sweep",`+base+`}`, shardJSON))
		var doc bytes.Buffer
		if err := Run(context.Background(), spec, &doc, Runtime{}); err != nil {
			t.Fatalf("shard %d/%d Run: %v", i, n, err)
		}
		sr, err := sweep.ReadShardReport(&doc)
		if err != nil {
			t.Fatalf("shard %d/%d document: %v", i, n, err)
		}
		if sr.Universe.Jobs != 6 {
			t.Fatalf("shard %d/%d pins universe of %d jobs, want 6", i, n, sr.Universe.Jobs)
		}
		shards = append(shards, sr)
	}
	merged, out, err := sweep.MergeShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	if out.Format != "csv" || !out.NoTiming {
		t.Fatalf("carried output = %+v, want csv/no_timing", out)
	}
	var got bytes.Buffer
	if err := merged.WriteCSV(&got, out.RenderOptions()); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("merged CSV differs from unsharded Run:\n--- unsharded ---\n%s--- merged ---\n%s", want.String(), got.String())
	}
}

// TestShardSpecRoundTrips: the optional field survives encode/decode
// unchanged (the round-trip stability property extended to shard).
func TestShardSpecRoundTrips(t *testing.T) {
	src := `{"v":1,"kind":"sweep","sweep":{"circuits":["s27"],"shard":{"index":2,"count":3}}}`
	spec := parse(t, src)
	if spec.Sweep.Shard == nil || spec.Sweep.Shard.Index != 2 || spec.Sweep.Shard.Count != 3 {
		t.Fatalf("shard = %+v, want 2/3", spec.Sweep.Shard)
	}
	enc, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := parseSpec(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if *spec2.Sweep.Shard != *spec.Sweep.Shard {
		t.Fatalf("shard changed across round-trip: %+v vs %+v", spec2.Sweep.Shard, spec.Sweep.Shard)
	}
}
