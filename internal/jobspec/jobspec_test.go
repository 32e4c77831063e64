package jobspec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

func parse(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse(%s): %v", src, err)
	}
	return s
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	// A typo'd key must fail loudly, not silently shrink the experiment.
	cases := []string{
		`{"v":1,"kind":"sweep","sweep":{"circutis":["s27"]}}`,          // typo inside a body
		`{"v":1,"kind":"compile","compile":{"circuit":"s27","lkk":3}}`, // typo'd knob
		`{"v":1,"kind":"sweep","sewep":{}}`,                            // typo'd body name
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
	src := `{"v":1,"kind":"compile","compile":{"circuit":"s27"}} {"second":"doc"}`
	if _, err := Decode(strings.NewReader(src)); err == nil {
		t.Fatal("Decode accepted trailing data after the spec document")
	}
}

func TestNormalizeAppliesCLIDefaults(t *testing.T) {
	s := parse(t, `{"v":1,"kind":"compile","compile":{"circuit":"s27"}}`)
	c := s.Compile
	if c.LK != 16 || c.Beta != 50 || c.Seed != 1 {
		t.Errorf("compile defaults = lk %d, beta %d, seed %d; want 16, 50, 1", c.LK, c.Beta, c.Seed)
	}
	if s.Output == nil || s.Output.Format != "text" {
		t.Errorf("output = %+v; want materialized with format text", s.Output)
	}

	s = parse(t, `{"v":1,"kind":"sweep","sweep":{}}`)
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

	s = parse(t, `{"v":1,"kind":"cover","cover":{"circuit":"s27"}}`)
	if s.Cover.LK != 16 || s.Cover.Beta != 50 || s.Cover.Seed != 1 {
		t.Errorf("cover defaults = %+v; want lk 16, beta 50, seed 1", s.Cover)
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
// a server can echo a job's effective spec without drift.
func TestRoundTripStability(t *testing.T) {
	srcs := []string{
		`{"v":1,"kind":"compile","compile":{"circuit":"s27","lk":3},"output":{"metrics":true}}`,
		`{"v":1,"kind":"sweep","timeout":"10m","sweep":{"circuits":["s27","s510"],"lks":[8],"workers":4,"job_timeout":"90s"},"output":{"format":"json","no_timing":true}}`,
		`{"v":1,"kind":"cover","cover":{"circuit":"s510","lk":8,"max_patterns":4096,"no_collapse":true},"output":{"undetected":true}}`,
		`{"v":1,"kind":"sweep","sweep":{"jobs":[{"circuit":"s27","lk":3,"seed":2}]}}`,
		`{"v":1,"kind":"sweep","sweep":{"circuits":["s27"],"lks":[3],"coverage":true}}`,
		`{"v":1,"kind":"cover","cover":{"circuit":"s510","lk":8,"workers":2}}`,
	}
	for _, src := range srcs {
		s1, err := Parse(strings.NewReader(src))
		if err != nil {
			t.Fatalf("Parse(%s): %v", src, err)
		}
		enc1, err := json.Marshal(s1)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		s2, err := Parse(bytes.NewReader(enc1))
		if err != nil {
			t.Fatalf("re-Parse(%s): %v", enc1, err)
		}
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
	// The three "lanes" keys were removed within version 1 (DESIGN.md
	// §13): a spec still carrying one must fail at decode as an unknown
	// field, never be silently ignored. Those rows have no field path.
	const removedLanes = `unknown field "lanes"`
	cases := []struct {
		src  string
		path string // "" when Decode itself must refuse with removedLanes
	}{
		{`{"v":2,"kind":"compile","compile":{"circuit":"s27"}}`, "v"},
		{`{"v":1,"compile":{"circuit":"s27"}}`, "kind"},
		{`{"v":1,"kind":"anneal"}`, "kind"},
		{`{"v":1,"kind":"compile"}`, "compile"},
		{`{"v":1,"kind":"compile","compile":{"circuit":"s27"},"cover":{"circuit":"s27"}}`, "cover"},
		{`{"v":1,"kind":"compile","compile":{"circuit":""}}`, "compile.circuit"},
		{`{"v":1,"kind":"compile","compile":{"circuit":"s27","lk":-1}}`, "compile.lk"},
		{`{"v":1,"kind":"compile","compile":{"circuit":"s27","beta":-5}}`, "compile.beta"},
		{`{"v":1,"kind":"sweep","sweep":{"lks":[8,-2]}}`, "sweep.lks[1]"},
		{`{"v":1,"kind":"sweep","sweep":{"betas":[50,-1]}}`, "sweep.betas[1]"},
		{`{"v":1,"kind":"sweep","sweep":{"workers":-1}}`, "sweep.workers"},
		{`{"v":1,"kind":"sweep","sweep":{"jobs":[{"circuit":"s27","lk":3},{"circuit":"","lk":3}]}}`, "sweep.jobs[1].circuit"},
		{`{"v":1,"kind":"sweep","sweep":{"jobs":[{"circuit":"s27","lk":0}]}}`, "sweep.jobs[0].lk"},
		{`{"v":1,"kind":"cover","cover":{"circuit":"s27","workers":-2}}`, "cover.workers"},
		{`{"v":1,"kind":"cover","cover":{"circuit":"s27","lanes":3}}`, ""},
		{`{"v":1,"kind":"sweep","sweep":{"lanes":[1,5]}}`, ""},
		{`{"v":1,"kind":"sweep","sweep":{"lanes":[0]}}`, ""},
		{`{"v":1,"kind":"sweep","sweep":{"jobs":[{"circuit":"s27","lk":3,"lanes":7}]}}`, ""},
		{`{"v":1,"kind":"compile","compile":{"circuit":"s27"},"output":{"format":"json"}}`, "output.format"},
		{`{"v":1,"kind":"sweep","sweep":{},"output":{"format":"yaml"}}`, "output.format"},
		{`{"v":1,"kind":"cover","cover":{"circuit":"s27"},"output":{"cache_stats":true}}`, "output.cache_stats"},
		{`{"v":1,"kind":"sweep","sweep":{},"output":{"undetected":true}}`, "output.undetected"},
	}
	for _, tc := range cases {
		_, err := Parse(strings.NewReader(tc.src))
		if err == nil {
			t.Errorf("Parse(%s) succeeded; want error at %q", tc.src, tc.path)
			continue
		}
		if tc.path == "" {
			if _, derr := Decode(strings.NewReader(tc.src)); derr == nil || !strings.Contains(derr.Error(), removedLanes) {
				t.Errorf("Decode(%s) error = %v; want %s", tc.src, derr, removedLanes)
			}
			continue
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("Parse(%s) error %T is not a *FieldError", tc.src, err)
			continue
		}
		if fe.Path != tc.path {
			t.Errorf("Parse(%s) error path = %q; want %q", tc.src, fe.Path, tc.path)
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

// TestRunCompileMatchesCoreCompile checks the compile funnel against a
// direct core.Compile of the same coordinates.
func TestRunCompileMatchesCoreCompile(t *testing.T) {
	spec := parse(t, `{"v":1,"kind":"compile","compile":{"circuit":"s27","lk":3}}`)
	var hooked *core.Result
	rt := Runtime{OnCompileResult: func(r *core.Result) error { hooked = r; return nil }}
	var out bytes.Buffer
	if err := Run(context.Background(), spec, &out, rt); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if hooked == nil {
		t.Fatal("OnCompileResult hook never ran")
	}
	c, err := sweep.LoadCircuit("s27")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Compile(context.Background(), c, core.DefaultOptions(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if hooked.Areas != direct.Areas {
		t.Errorf("funnel areas %+v != direct compile areas %+v", hooked.Areas, direct.Areas)
	}
	if !strings.Contains(out.String(), "Merced BIST compiler") {
		t.Errorf("report missing header:\n%s", out.String())
	}
}

// TestRunSharedCache checks that two Runs through one Runtime.Cache share
// the saturate prefix: the second run's compile is all hits.
func TestRunSharedCache(t *testing.T) {
	cache := sweep.NewCache(0)
	rt := Runtime{Cache: cache}
	spec := parse(t, `{"v":1,"kind":"compile","compile":{"circuit":"s27","lk":3}}`)
	for i := 0; i < 2; i++ {
		var out bytes.Buffer
		if err := Run(context.Background(), spec, &out, rt); err != nil {
			t.Fatalf("Run %d: %v", i, err)
		}
	}
	st := cache.Stats()
	if st.Saturated.Misses != 1 || st.Saturated.Hits != 1 {
		t.Errorf("saturated stats = %+v; want exactly 1 miss then 1 hit", st.Saturated)
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
