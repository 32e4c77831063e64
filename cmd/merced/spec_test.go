package main

// Tests for the -spec flag's v1 jobspec handling: the file is decoded by
// the jobspec decoder, typo'd keys fail loudly, and explicitly set
// command-line flags override the file's settings.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSpec(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSweepSpecFileRunsJobspec(t *testing.T) {
	path := writeSpec(t, `{"v":1,"kind":"sweep",
		"sweep":{"circuits":["s27"],"lks":[3,4]},
		"output":{"format":"json","no_timing":true}}`)
	var specOut, flagOut, errb bytes.Buffer
	if code := runSweep(context.Background(), sweepRun{spec: path}, &specOut, &errb); code != 0 {
		t.Fatalf("runSweep -spec exit %d: %s", code, errb.String())
	}
	if code := runSweep(context.Background(), sweepRun{
		circuits: "s27", lks: "3,4", betas: "50", seeds: "1",
		format: "json", noTiming: true,
	}, &flagOut, &errb); code != 0 {
		t.Fatalf("runSweep flags exit %d: %s", code, errb.String())
	}
	if specOut.String() != flagOut.String() {
		t.Errorf("-spec output diverges from the equivalent flags:\n spec %s\nflags %s", specOut.String(), flagOut.String())
	}
}

func TestSweepSpecFileRejectsTypo(t *testing.T) {
	path := writeSpec(t, `{"v":1,"kind":"sweep","sweep":{"circutis":["s27"]}}`)
	var out, errb bytes.Buffer
	if code := runSweep(context.Background(), sweepRun{spec: path}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d; want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown field") {
		t.Errorf("stderr does not name the unknown field: %q", errb.String())
	}
}

// Only sweep specs run: a bare foreign kind fails validation, and a
// document carrying a removed compile/cover body fails at decode.
func TestSweepSpecFileRejectsWrongKind(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`{"v":1,"kind":"cover"}`, `kind "cover"`},
		{`{"v":1,"kind":"compile"}`, `kind "compile"`},
		{`{"v":1,"kind":"cover","cover":{"circuit":"s27"}}`, `unknown field "cover"`},
	} {
		var out, errb bytes.Buffer
		if code := runSweep(context.Background(), sweepRun{spec: writeSpec(t, tc.src)}, &out, &errb); code != 1 {
			t.Fatalf("%s: exit code = %d; want 1", tc.src, code)
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%s: stderr %q does not contain %q", tc.src, errb.String(), tc.want)
		}
	}
}

// Explicit command-line flags override the spec file's settings, so the
// documented `-spec jobs.json -format csv` workflow keeps working.
func TestSweepSpecFlagOverrides(t *testing.T) {
	path := writeSpec(t, `{"v":1,"kind":"sweep",
		"sweep":{"circuits":["s27"],"lks":[3]},
		"output":{"format":"json"}}`)
	var out, errb bytes.Buffer
	if code := runSweep(context.Background(), sweepRun{
		spec: path, format: "csv", noTiming: true,
	}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if strings.HasPrefix(strings.TrimSpace(out.String()), "{") {
		t.Errorf("-format csv did not override the spec's json:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "circuit,") {
		t.Errorf("expected CSV header in output:\n%s", out.String())
	}
}
