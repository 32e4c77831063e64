package main

// Tests for the `simulate` and `benchgen` subcommands: usage errors exit
// 2 with an empty stdout, and a valid run writes what it reports.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSubcommandUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"simulate", "-circuit", "s27", "-cycles", "8", "-stimulus", "bogus"},
		{"simulate", "-circuit", "s27", "-cycles", "8", "bogus"},
		{"simulate", "-no-such-flag"},
		{"benchgen", "-out", dir, "-circuits", "s27", "bogus"},
		{"benchgen", "-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("merced %v: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("merced %v: stdout %q, want empty", args, stdout.String())
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("a rejected benchgen wrote %d files", len(entries))
	}
}

func TestSimulateWritesVCD(t *testing.T) {
	vcd := filepath.Join(t.TempDir(), "waves.vcd")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"simulate", "-circuit", "s27", "-cycles", "64", "-stimulus", "lfsr", "-vcd", vcd}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	want := "s27: simulated 64 cycles (lfsr stimulus)\n"
	if !strings.HasPrefix(stdout.String(), want) || !strings.Contains(stdout.String(), "waveforms: "+vcd+" (17 signals)") {
		t.Fatalf("stdout:\n%s", stdout.String())
	}
	dump, err := os.ReadFile(vcd)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(dump, []byte("$enddefinitions $end")) || !bytes.Contains(dump, []byte("$scope module s27 $end")) {
		t.Fatalf("VCD header:\n%s", dump)
	}
}

// The written netlists parse and lint clean.
func TestBenchgenWritesLintCleanNetlists(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"benchgen", "-out", dir, "-circuits", "s27,s510"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if lines := strings.Count(stdout.String(), "\n"); lines != 2 {
		t.Fatalf("%d stat lines, want 2:\n%s", lines, stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"-lint", "-file", filepath.Join(dir, "s510.bench"), "-lk", "16"}, &stdout, &stderr); code != 0 {
		t.Fatalf("lint of the written s510 exit %d:\n%s%s", code, stdout.String(), stderr.String())
	}
}
