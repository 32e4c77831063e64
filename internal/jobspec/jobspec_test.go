package jobspec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// parseSpec takes a document down the path `merced -sweep -spec` takes
// (without flag overrides): Decode, then Normalize, then Validate.
func parseSpec(r io.Reader) (*Spec, error) {
	s, err := Decode(r)
	if err != nil {
		return nil, err
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func parse(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := parseSpec(strings.NewReader(src))
	if err != nil {
		t.Fatalf("parseSpec(%s): %v", src, err)
	}
	return s
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	// A typo'd key must fail loudly, not silently shrink the experiment.
	cases := []string{
		`{"v":1,"kind":"sweep","sweep":{"circutis":["s27"]}}`,            // typo inside a body
		`{"v":1,"kind":"sweep","sweep":{"circuits":["s27"],"lkss":[3]}}`, // typo'd knob
		`{"v":1,"kind":"sweep","sewep":{}}`,                              // typo'd body name
	}
	for _, src := range cases {
		if _, err := Decode(strings.NewReader(src)); err == nil {
			t.Errorf("Decode(%s) accepted an unknown field", src)
		} else if !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("Decode(%s) error %q does not name the unknown field", src, err)
		}
	}
}

func TestDecodeRejectsTrailingData(t *testing.T) {
	src := `{"v":1,"kind":"sweep","sweep":{"circuits":["s27"]}} {"second":"doc"}`
	if _, err := Decode(strings.NewReader(src)); err == nil {
		t.Fatal("Decode accepted trailing data after the spec document")
	}
}

func TestNormalizeAppliesCLIDefaults(t *testing.T) {
	s := parse(t, `{"v":1,"kind":"sweep","sweep":{}}`)
	if s.Output == nil || s.Output.Format != "text" {
		t.Errorf("output = %+v; want materialized with format text", s.Output)
	}
	sw := s.Sweep
	if got, want := sw.Circuits, []string{"all"}; !equalStr(got, want) {
		t.Errorf("sweep.circuits = %v; want %v", got, want)
	}
	if len(sw.LKs) != 2 || sw.LKs[0] != 16 || sw.LKs[1] != 24 {
		t.Errorf("sweep.lks = %v; want [16 24]", sw.LKs)
	}
	if len(sw.Betas) != 1 || sw.Betas[0] != 50 {
		t.Errorf("sweep.betas = %v; want [50]", sw.Betas)
	}
	if len(sw.Seeds) != 1 || sw.Seeds[0] != 1 {
		t.Errorf("sweep.seeds = %v; want [1]", sw.Seeds)
	}
}

func equalStr(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRoundTripStability pins the decode→normalize→encode→decode cycle: a
// normalized spec re-encodes to a document that decodes back identical, so
// the effective spec can be written back out without drift.
func TestRoundTripStability(t *testing.T) {
	srcs := []string{
		`{"v":1,"kind":"sweep","sweep":{"circuits":["s27"],"lks":[3]},"output":{"metrics":true,"cache_stats":true}}`,
		`{"v":1,"kind":"sweep","timeout":"10m","sweep":{"circuits":["s27","s510"],"lks":[8],"workers":4,"job_timeout":"90s"},"output":{"format":"json","no_timing":true}}`,
		`{"v":1,"kind":"sweep","sweep":{"jobs":[{"circuit":"s27","lk":3,"seed":2}]}}`,
		`{"v":1,"kind":"sweep","sweep":{"circuits":["s27"],"lks":[3],"coverage":true}}`,
	}
	for _, src := range srcs {
		s1 := parse(t, src)
		enc1, err := json.Marshal(s1)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		s2 := parse(t, string(enc1))
		enc2, err := json.Marshal(s2)
		if err != nil {
			t.Fatalf("re-Marshal: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Errorf("round trip unstable:\n first %s\nsecond %s", enc1, enc2)
		}
	}
}

func TestDurationJSON(t *testing.T) {
	s := parse(t, `{"v":1,"kind":"sweep","timeout":"90s","sweep":{"job_timeout":"1m30s"}}`)
	if time.Duration(s.Timeout) != 90*time.Second {
		t.Errorf("timeout = %v; want 90s", time.Duration(s.Timeout))
	}
	if time.Duration(s.Sweep.JobTimeout) != 90*time.Second {
		t.Errorf("job_timeout = %v; want 90s", time.Duration(s.Sweep.JobTimeout))
	}
	// Bare numbers are ambiguous (seconds? nanoseconds?) and rejected.
	if _, err := Decode(strings.NewReader(`{"v":1,"kind":"sweep","timeout":90,"sweep":{}}`)); err == nil {
		t.Error("Decode accepted a numeric timeout")
	}
}

func TestValidateFieldPaths(t *testing.T) {
	cases := []struct {
		src  string
		path string
	}{
		{`{"v":2,"kind":"sweep","sweep":{}}`, "v"},
		{`{"v":1,"sweep":{}}`, "kind"},
		{`{"v":1,"kind":"anneal"}`, "kind"},
		{`{"v":1,"kind":"compile"}`, "kind"},
		{`{"v":1,"kind":"cover"}`, "kind"},
		{`{"v":1,"kind":"sweep"}`, "sweep"},
		{`{"v":1,"kind":"sweep","timeout":"-1s","sweep":{}}`, "timeout"},
		{`{"v":1,"kind":"sweep","sweep":{"circuits":["s27",""]}}`, "sweep.circuits[1]"},
		{`{"v":1,"kind":"sweep","sweep":{"lks":[8,-2]}}`, "sweep.lks[1]"},
		{`{"v":1,"kind":"sweep","sweep":{"betas":[50,-1]}}`, "sweep.betas[1]"},
		{`{"v":1,"kind":"sweep","sweep":{"workers":-1}}`, "sweep.workers"},
		{`{"v":1,"kind":"sweep","sweep":{"jobs":[{"circuit":"s27","lk":3},{"circuit":"","lk":3}]}}`, "sweep.jobs[1].circuit"},
		{`{"v":1,"kind":"sweep","sweep":{"jobs":[{"circuit":"s27","lk":0}]}}`, "sweep.jobs[0].lk"},
		{`{"v":1,"kind":"sweep","sweep":{"job_timeout":"-1s"}}`, "sweep.job_timeout"},
		{`{"v":1,"kind":"sweep","sweep":{},"output":{"format":"yaml"}}`, "output.format"},
	}
	for _, tc := range cases {
		_, err := parseSpec(strings.NewReader(tc.src))
		if err == nil {
			t.Errorf("parseSpec(%s) succeeded; want error at %q", tc.src, tc.path)
			continue
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("parseSpec(%s) error %T is not a *FieldError", tc.src, err)
			continue
		}
		if fe.Path != tc.path {
			t.Errorf("parseSpec(%s) error path = %q; want %q", tc.src, fe.Path, tc.path)
		}
	}

	// Keys removed within version 1 (DESIGN.md §13) — the "lanes" keys,
	// "output.trace", the "compile" and "cover" bodies,
	// "output.undetected", "sweep.no_retime_solver", "sweep.no_cache" and
	// "sweep.shard":
	// a spec still carrying one must fail at decode as an unknown field,
	// never be silently ignored.
	removed := []struct{ src, key string }{
		{`{"v":1,"kind":"sweep","sweep":{"lanes":[1,5]}}`, "lanes"},
		{`{"v":1,"kind":"sweep","sweep":{"lanes":[0]}}`, "lanes"},
		{`{"v":1,"kind":"sweep","sweep":{"jobs":[{"circuit":"s27","lk":3,"lanes":7}]}}`, "lanes"},
		{`{"v":1,"kind":"sweep","sweep":{},"output":{"format":"csv","trace":true}}`, "trace"},
		{`{"v":1,"kind":"compile","compile":{"circuit":"s27","lk":3}}`, "compile"},
		{`{"v":1,"kind":"cover","cover":{"circuit":"s27","lk":3}}`, "cover"},
		{`{"v":1,"kind":"sweep","sweep":{},"output":{"undetected":true}}`, "undetected"},
		{`{"v":1,"kind":"sweep","sweep":{"no_retime_solver":true}}`, "no_retime_solver"},
		{`{"v":1,"kind":"sweep","sweep":{"no_cache":true}}`, "no_cache"},
		{`{"v":1,"kind":"sweep","sweep":{"shard":{"index":1,"count":2}}}`, "shard"},
	}
	for _, tc := range removed {
		want := `unknown field "` + tc.key + `"`
		if _, err := parseSpec(strings.NewReader(tc.src)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("parseSpec(%s) error = %v; want %s", tc.src, err, want)
		}
	}
}

// TestRunSweepMatchesSweepPackage pins the byte-identity guarantee at the
// funnel boundary: Run on a sweep spec renders exactly what sweep.Run plus
// the renderer produce for the same matrix.
func TestRunSweepMatchesSweepPackage(t *testing.T) {
	spec := parse(t, `{"v":1,"kind":"sweep",
		"sweep":{"circuits":["s27"],"lks":[3,4],"workers":2},
		"output":{"format":"json","no_timing":true,"cache_stats":true}}`)
	var got bytes.Buffer
	if err := Run(context.Background(), spec, &got, Runtime{}); err != nil {
		t.Fatalf("Run: %v", err)
	}

	jobs := sweep.Matrix([]string{"s27"}, []int{3, 4}, []int{50}, []int64{1})
	rep, err := sweep.Run(context.Background(), jobs, sweep.Config{Workers: 2})
	if err != nil {
		t.Fatalf("sweep.Run: %v", err)
	}
	var want bytes.Buffer
	if err := rep.WriteJSON(&want, sweep.RenderOptions{CacheStats: true}); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if got.String() != want.String() {
		t.Errorf("funnel output diverges from sweep package:\n got %s\nwant %s", got.String(), want.String())
	}
}

func TestRunReportsJobFailure(t *testing.T) {
	spec := parse(t, `{"v":1,"kind":"sweep",
		"sweep":{"jobs":[{"circuit":"no-such-circuit","lk":3}]},
		"output":{"format":"json","no_timing":true}}`)
	var out bytes.Buffer
	err := Run(context.Background(), spec, &out, Runtime{})
	if err == nil {
		t.Fatal("Run succeeded on an unloadable circuit")
	}
}

func TestRunTimeout(t *testing.T) {
	spec := parse(t, `{"v":1,"kind":"sweep","timeout":"1ns",
		"sweep":{"circuits":["s27"],"lks":[3]},
		"output":{"format":"json","no_timing":true}}`)
	var out bytes.Buffer
	err := Run(context.Background(), spec, &out, Runtime{})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run error = %v; want context.DeadlineExceeded", err)
	}
}
