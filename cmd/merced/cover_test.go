package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// runCoverOut runs cover mode and returns stdout, failing the test on a
// non-zero exit.
func runCoverOut(t *testing.T, cr coverRun) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := runCover(context.Background(), cr, &out, &errb); code != 0 {
		t.Fatalf("runCover exit %d: %s", code, errb.String())
	}
	return out.String()
}

// The -cover contract: with -no-timing the report is byte-identical at any
// -workers value, in every format.
func TestCoverDeterministicAcrossWorkers(t *testing.T) {
	for _, format := range []string{"text", "json", "csv"} {
		base := coverRun{circuit: "s510", lk: 8, beta: 50, seed: 1, format: format, noTiming: true}
		w1 := base
		w1.workers = 1
		w8 := base
		w8.workers = 8
		o1 := runCoverOut(t, w1)
		o8 := runCoverOut(t, w8)
		if o1 != o8 {
			t.Errorf("%s: reports differ between -workers 1 and 8:\n--- 1\n%s\n--- 8\n%s", format, o1, o8)
		}
		if o1 == "" {
			t.Errorf("%s: empty report", format)
		}
	}
}

func TestCoverTextReport(t *testing.T) {
	out := runCoverOut(t, coverRun{circuit: "s27", lk: 3, beta: 50, seed: 1, noTiming: true, undetected: true})
	for _, want := range []string{"Fault coverage", "cluster", "total:", "faults detected"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
}

func TestCoverJSONHasSegments(t *testing.T) {
	out := runCoverOut(t, coverRun{circuit: "s27", lk: 3, beta: 50, seed: 1, format: "json", noTiming: true})
	for _, want := range []string{`"segments"`, `"coverage"`, `"patterns"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON report missing %q:\n%s", want, out)
		}
	}
	// Batch counts depend on the packing width, so they are timing-gated
	// and must stay out of the reproducible report along with the
	// wall-clock.
	for _, leak := range []string{`"elapsed_ms"`, `"batches"`, `"triage_batches"`} {
		if strings.Contains(out, leak) {
			t.Errorf("timing field %s leaked into -no-timing JSON:\n%s", leak, out)
		}
	}
}

// A missing circuit file must reach stderr and exit 1 even when the report
// format is JSON and stdout is redirected — the failure mode this pins is
// the error landing inside the redirected stream (or nowhere) and the
// process exiting 0 with an empty report.
func TestCoverMissingFileExitsNonzero(t *testing.T) {
	var out, errb bytes.Buffer
	code := runCover(context.Background(), coverRun{
		file: "/does/not/exist.bench", lk: 8, beta: 50, seed: 1,
		format: "json", noTiming: true,
	}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d; want 1", code)
	}
	if out.Len() != 0 {
		t.Errorf("stdout not empty on failure: %q", out.String())
	}
	if !strings.Contains(errb.String(), "exist.bench") {
		t.Errorf("stderr does not name the missing file: %q", errb.String())
	}
}

func TestCoverBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := runCover(context.Background(), coverRun{circuit: "s27", lk: 3, beta: 50, seed: 1, format: "yaml"}, &out, &errb); code == 0 {
		t.Fatal("unknown format accepted")
	}
	out.Reset()
	errb.Reset()
	if code := runCover(context.Background(), coverRun{lk: 3, beta: 50, seed: 1}, &out, &errb); code == 0 {
		t.Fatal("missing circuit accepted")
	}
}
