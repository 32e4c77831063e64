package ppetretime

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmd compiles one of the repo's commands into dir and returns the
// binary path.
func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()

	merced := buildCmd(t, dir, "merced")
	out := run(t, merced, "-circuit", "s27", "-lk", "3", "-v")
	for _, want := range []string{"Merced BIST compiler", "A_CBIT/A_Total", "testing time", "Clusters"} {
		if !strings.Contains(out, want) {
			t.Fatalf("merced output missing %q:\n%s", want, out)
		}
	}

	// Emit a testable netlist, then feed it back through the parser via
	// the simulate subcommand.
	bench := filepath.Join(dir, "s27_testable.bench")
	run(t, merced, "-circuit", "s27", "-lk", "3", "-emit", bench)
	if _, err := os.Stat(bench); err != nil {
		t.Fatalf("emitted netlist missing: %v", err)
	}

	vcd := filepath.Join(dir, "waves.vcd")
	out = run(t, merced, "simulate", "-file", bench, "-cycles", "20", "-stimulus", "lfsr", "-vcd", vcd)
	if !strings.Contains(out, "simulated 20 cycles") {
		t.Fatalf("simulate output:\n%s", out)
	}
	if fi, err := os.Stat(vcd); err != nil || fi.Size() == 0 {
		t.Fatalf("vcd missing or empty: %v", err)
	}

	out = run(t, merced, "benchgen", "-out", filepath.Join(dir, "suite"), "-circuits", "s27,s510")
	if !strings.Contains(out, "s510") {
		t.Fatalf("benchgen output:\n%s", out)
	}

	out = run(t, merced, "-cover", "-circuit", "s27", "-lk", "3")
	if !strings.Contains(out, "Fault coverage") || !strings.Contains(out, "faults detected") {
		t.Fatalf("merced -cover output:\n%s", out)
	}

	out = run(t, merced, "tables", "-table", "1")
	if !strings.Contains(out, "d6") || !strings.Contains(out, "63.12") {
		t.Fatalf("merced tables output:\n%s", out)
	}
	out = run(t, merced, "tables", "-table", "10", "-circuits", "s641")
	if !strings.Contains(out, "s641") {
		t.Fatalf("merced tables -table 10 output:\n%s", out)
	}
	out = run(t, merced, "tables", "-table", "1", "-csv")
	if !strings.Contains(out, "d1,4,") {
		t.Fatalf("merced tables CSV output:\n%s", out)
	}
}

func TestExamplesBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	examples, err := filepath.Glob("examples/*")
	if err != nil || len(examples) < 5 {
		t.Fatalf("examples: %v (%d found)", err, len(examples))
	}
	for _, ex := range examples {
		bin := filepath.Join(dir, filepath.Base(ex))
		cmd := exec.Command("go", "build", "-o", bin, "./"+ex)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", ex, err, out)
		}
	}
	// Run the cheapest two end to end.
	for _, name := range []string{"quickstart", "s27walkthrough"} {
		out, err := exec.Command(filepath.Join(dir, name)).CombinedOutput()
		if err != nil {
			t.Fatalf("run %s: %v\n%s", name, err, out)
		}
		if len(out) == 0 {
			t.Fatalf("%s produced no output", name)
		}
	}
}
