package main

// Tests for the default report mode and for the command-line surface that
// every mode shares: how run resolves the single-job flags, and which
// arguments it refuses before any work starts.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sweep"
)

// runCLI runs the command over args and returns its exit code, stdout and
// stderr.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// dropCompileTime removes the wall-clock line from a compile report.
func dropCompileTime(report string) string {
	var keep []string
	for _, line := range strings.Split(report, "\n") {
		if !strings.HasPrefix(line, "compile time:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// The default mode on the paper's worked example: the report prices
// exactly like core.Compile, -v adds the cluster table, and the extras
// follow in order: -metrics table, -min-period line, -emit line. The
// emitted netlist re-parses.
func TestReportMatchesCoreCompile(t *testing.T) {
	emitted := filepath.Join(t.TempDir(), "s27_bist.bench")
	code, out, errs := runCLI(t, "-circuit", "s27", "-lk", "3", "-v", "-metrics", "-min-period", "-emit", emitted)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}

	c, err := sweep.LoadCircuit("s27")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Compile(context.Background(), c, core.DefaultOptions(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	writeCompileReport(&want, direct, 3, true)
	if got := dropCompileTime(out); !strings.HasPrefix(got, dropCompileTime(want.String())) {
		t.Errorf("report diverges from core.Compile's:\n--- got\n%s\n--- want prefix\n%s", got, want.String())
	}

	var last int
	for _, marker := range []string{"\nClusters", "Cluster membership:", "\nmetric ", "clock period (unit gate delays):", "emitted " + emitted + ":"} {
		i := strings.Index(out, marker)
		if i < last {
			t.Errorf("%q missing or out of order in:\n%s", marker, out)
			continue
		}
		last = i
	}

	f, err := os.Open(emitted)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := netlist.ParseBench(emitted, f); err != nil {
		t.Errorf("emitted netlist does not re-parse: %v", err)
	}
}

// Explicit flag values mean what they say in the single-job modes, as they
// do in a sweep: -lk 0 is rejected, and -seed 0 runs seed 0 (s510 @ 8
// cuts 57 nets at seed 0, 74 at seed 1).
func TestSingleJobZeroFlags(t *testing.T) {
	for _, mode := range [][]string{nil, {"-cover"}} {
		args := append(mode, "-circuit", "s27", "-lk", "0")
		if code, out, errs := runCLI(t, args...); code != 1 || out != "" || !strings.Contains(errs, "LK must be >= 1") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 naming LK", args, code, out, errs)
		}
	}

	job := sweep.Job{Circuit: "s510", LK: 8, Seed: 0}
	rep, err := sweep.Run(context.Background(), []sweep.Job{job}, sweep.Config{Workers: 1, Coverage: true})
	if err != nil {
		t.Fatal(err)
	}
	jr := rep.Jobs[0]
	if jr.Err != nil {
		t.Fatal(jr.Err)
	}

	code, out, errs := runCLI(t, "-circuit", "s510", "-lk", "8", "-seed", "0")
	if code != 0 {
		t.Fatalf("report exit %d: %s", code, errs)
	}
	want := fmt.Sprintf("l_k=8: %d clusters, max inputs %d, %d cut nets (%d on SCCs)\n",
		jr.Clusters, jr.MaxInputs, jr.Areas.CutNets, jr.Areas.CutNetsOnSCC)
	if !strings.Contains(out, want) {
		t.Errorf("-seed 0 report does not match the seed-0 sweep job %q:\n%s", want, out)
	}

	code, out, errs = runCLI(t, "-cover", "-circuit", "s510", "-lk", "8", "-seed", "0", "-format", "json", "-no-timing")
	if code != 0 {
		t.Fatalf("cover exit %d: %s", code, errs)
	}
	var wantCover bytes.Buffer
	if err := jr.Coverage.WriteJSON(&wantCover, fault.RenderOptions{}); err != nil {
		t.Fatal(err)
	}
	if out != wantCover.String() {
		t.Errorf("-cover -seed 0 differs from the seed-0 sweep campaign:\n--- got\n%s\n--- want\n%s", out, wantCover.String())
	}
}

// Arguments the command would otherwise drop are usage errors (exit 2)
// before any work starts. So is -no-retime-solver in every mode that took
// it: the solver always prices the report now, and a removed flag must not
// quietly run something else.
func TestUnexpectedArguments(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "v.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-circuit", "s27", "-lk", "3", "bogus"}, `unexpected argument "bogus"`},
		{[]string{"serve", "-circuit", "s27"}, `unexpected argument "serve"`},
		{[]string{"-cover", "-spec", spec, "-circuit", "s27", "-lk", "3"}, "-spec is only valid with -sweep"},
		{[]string{"-spec", spec, "-circuit", "s27", "-lk", "3"}, "-spec is only valid with -sweep"},
		{[]string{"-circuit", "s27", "-lk", "3", "-no-retime-solver"}, "-no-retime-solver"},
		{[]string{"-lint", "-circuit", "s27", "-lk", "3", "-no-retime-solver"}, "-no-retime-solver"},
		{[]string{"-cover", "-circuit", "s27", "-lk", "3", "-no-retime-solver"}, "-no-retime-solver"},
		{[]string{"-sweep", "-circuits", "s27", "-lks", "3", "-no-retime-solver"}, "-no-retime-solver"},
		{[]string{"-sweep", "-circuits", "s27", "-lks", "3", "-no-cache"}, "-no-cache"},
		{[]string{"-sweep", "-circuits", "s27", "-lks", "3", "-shard", "1/2"}, "-shard"},
		{[]string{"merge", "a.json"}, `unexpected argument "merge"`},
		{[]string{"tables", "-table", "1", "bogus"}, `unexpected argument "bogus"`},
		{[]string{"tables", "-table", "1", "-workers", "2"}, "-workers"},
		{[]string{"tables", "-table", "13"}, `unknown -table "13"`},
	} {
		code, out, errs := runCLI(t, tc.args...)
		if code != 2 || out != "" || !strings.Contains(errs, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 with %q", tc.args, code, out, errs, tc.want)
		}
	}
}
