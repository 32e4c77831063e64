package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
)

func writeBench(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.bench")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func lintFile(t *testing.T, cfg lintRun) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	cfg.cache = sweep.NewCache()
	code := runLint(context.Background(), cfg, &out, &errw)
	return code, out.String(), errw.String()
}

func TestLintBrokenNetlistExits2(t *testing.T) {
	path := writeBench(t, `
INPUT(a)
OUTPUT(y)
y = AND(a, nothere)
l1 = OR(l2, a)
l2 = NOR(l1, a)
`)
	code, out, _ := lintFile(t, lintRun{file: path, lk: 4, beta: 50, seed: 1, threshold: "error"})
	if code != exitFindings {
		t.Fatalf("exit = %d, want %d\n%s", code, exitFindings, out)
	}
	for _, id := range []string{"NL003", "NL006"} {
		if !strings.Contains(out, id) {
			t.Errorf("output missing %s:\n%s", id, out)
		}
	}
}

func TestLintSeverityThreshold(t *testing.T) {
	// Structurally sound, one warning (q floats), no errors.
	path := writeBench(t, `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = AND(a, b)
q = DFF(y)
`)
	base := lintRun{file: path, lk: 4, beta: 50, seed: 1}

	cfg := base
	cfg.threshold = "error"
	if code, out, _ := lintFile(t, cfg); code != exitClean {
		t.Fatalf("warnings-only at threshold=error: exit %d, want 0\n%s", code, out)
	}
	cfg.threshold = "warning"
	if code, _, _ := lintFile(t, cfg); code != exitFindings {
		t.Fatalf("warnings-only at threshold=warning: exit %d, want 2", code)
	}
	cfg.threshold = "bogus"
	if code, _, errw := lintFile(t, cfg); code != exitOperational || !strings.Contains(errw, "unknown severity") {
		t.Fatalf("bogus threshold: exit %d (%q), want 1", code, errw)
	}
}

func TestLintSeedBenchmarkClean(t *testing.T) {
	code, out, errw := lintFile(t, lintRun{circuit: "s27", lk: 3, beta: 50, seed: 1, threshold: "error"})
	if code != exitClean {
		t.Fatalf("s27 lint exit %d, want 0\nstdout: %s\nstderr: %s", code, out, errw)
	}
	if !strings.Contains(out, "0 error(s)") {
		t.Fatalf("unexpected summary: %s", out)
	}
}

// Lint compiles the partition it checks with the options every other mode
// compiles with, so -beta 0 means the default β = 50 there too. On s641 at
// l_k 8 a partition compiled at β 0 itself has a cluster over l_k (PT001).
func TestLintBetaZeroMeansDefault(t *testing.T) {
	run := func(beta int) string {
		_, out, errw := lintFile(t, lintRun{circuit: "s641", lk: 8, beta: beta, seed: 1, threshold: "error"})
		return out + errw
	}
	if zero, fifty := run(0), run(50); zero != fifty {
		t.Fatalf("-beta 0 lints:\n%s\n-beta 50 lints:\n%s", zero, fifty)
	}
}

func TestLintJSONOutput(t *testing.T) {
	path := writeBench(t, `
INPUT(a)
OUTPUT(y)
y = BUF(ghost)
`)
	code, out, _ := lintFile(t, lintRun{file: path, lk: 4, beta: 50, seed: 1, threshold: "error", jsonOut: true})
	if code != exitFindings {
		t.Fatalf("exit %d, want 2", code)
	}
	var got struct {
		File        string `json:"file"`
		Diagnostics []struct {
			Rule     string `json:"rule"`
			Severity string `json:"severity"`
			Loc      struct {
				Line int `json:"line"`
			} `json:"loc"`
		} `json:"diagnostics"`
		Errors int `json:"errors"`
	}
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if got.Errors == 0 || len(got.Diagnostics) == 0 {
		t.Fatalf("no findings in JSON: %s", out)
	}
	found := false
	for _, d := range got.Diagnostics {
		if d.Rule == "NL003" && d.Severity == "error" && d.Loc.Line == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("NL003 at line 4 missing: %s", out)
	}
}

func TestLintMissingInputIsOperational(t *testing.T) {
	code, _, errw := lintFile(t, lintRun{lk: 4, beta: 50, threshold: "error"})
	if code != exitOperational {
		t.Fatalf("exit %d, want 1 (%s)", code, errw)
	}
	code, _, _ = lintFile(t, lintRun{file: "/does/not/exist.bench", lk: 4, beta: 50, threshold: "error"})
	if code != exitOperational {
		t.Fatalf("exit %d, want 1", code)
	}
}

// Lint compiles under the mode context: a -trace of it carries the
// compile's "stage" spans, one per phase, like the report mode's.
func TestLintTraceCarriesStageSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	code, _, errs := runCLI(t, "-lint", "-circuit", "s27", "-lk", "3", "-trace", path)
	if code != exitClean {
		t.Fatalf("exit %d: %s", code, errs)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Cat  string `json:"cat"`
		Ph   string `json:"ph"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, e := range events {
		if e.Ph == "X" && e.Cat == "stage" {
			phase, _, _ := strings.Cut(e.Name, " ")
			spans[phase]++
		}
	}
	for _, phase := range core.PhaseNames {
		if spans[phase] != 1 {
			t.Errorf("%d %q stage spans, want 1 (all: %v)", spans[phase], phase, spans)
		}
	}
}

// A cancelled mode context (Ctrl-C) stops the lint compile: exit 1 naming
// the cancellation, never a clean report.
func TestLintCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errw bytes.Buffer
	cfg := lintRun{circuit: "s27", lk: 3, beta: 50, seed: 1, threshold: "error", cache: sweep.NewCache()}
	code := runLint(ctx, cfg, &out, &errw)
	if code != exitOperational || !strings.Contains(errw.String(), "context canceled") {
		t.Fatalf("exit %d, stderr %q; want exit 1 with context canceled", code, errw.String())
	}
}

func TestRuleCatalog(t *testing.T) {
	var out bytes.Buffer
	printRuleCatalog(false, &out)
	s := out.String()
	for _, id := range []string{
		"NL001", "NL002", "NL003", "NL004", "NL005", "NL006", "NL007",
		"NL008", "NL009", "NL010", "NL011",
		"PT001", "PT002", "PT003", "PT004", "PT005", "PT006", "PT007",
		"BT001", "BT002", "BT003", "BT004", "BT005",
	} {
		if !strings.Contains(s, id) {
			t.Errorf("catalog missing %s", id)
		}
	}

	out.Reset()
	printRuleCatalog(true, &out)
	var rows []struct {
		ID    string `json:"id"`
		Layer string `json:"layer"`
		Doc   string `json:"doc"`
	}
	if err := json.Unmarshal(out.Bytes(), &rows); err != nil {
		t.Fatalf("catalog JSON: %v", err)
	}
	if len(rows) < 23 {
		t.Fatalf("catalog has %d rules, want >= 23", len(rows))
	}
	for _, r := range rows {
		if r.Doc == "" {
			t.Errorf("rule %s has no doc string", r.ID)
		}
	}
}
