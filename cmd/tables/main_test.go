package main

import (
	"context"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// section returns the lines of the block titled by a line starting with
// title, up to the next blank line.
func section(t *testing.T, text, title string) []string {
	t.Helper()
	i := strings.Index(text, "\n"+title)
	if i < 0 {
		t.Fatalf("no %q block", title)
	}
	block, _, _ := strings.Cut(text[i+1:], "\n\n")
	return strings.Split(block, "\n")[1:]
}

// tableRows maps the first column of an aligned text table to its fields,
// skipping the header and rule lines.
func tableRows(t *testing.T, text, title string) map[string][]string {
	t.Helper()
	rows := map[string][]string{}
	for _, line := range section(t, text, title)[2:] {
		f := strings.Fields(line)
		rows[f[0]] = f
	}
	return rows
}

// mdRows maps the first cell of each markdown table row in the EXPERIMENTS
// section titled title to the measured value of every cell: the text
// before any parenthesised paper figure.
func mdRows(t *testing.T, text, title string) map[string][]string {
	t.Helper()
	i := strings.Index(text, "\n"+title)
	if i < 0 {
		t.Fatalf("no %q section", title)
	}
	body := text[i+1:]
	if j := strings.Index(body, "\n## "); j >= 0 {
		body = body[:j]
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "| s") {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			v, _, _ := strings.Cut(strings.TrimSpace(c), " (")
			cells = append(cells, v)
		}
		rows[cells[0]] = cells
	}
	return rows
}

// TestExperimentsMatchTables checks the Table 10-12 rows and the average
// saving quoted in EXPERIMENTS.md against results/tables_all.txt, so the
// prose cannot drift from the committed tables. It compiles nothing.
func TestExperimentsMatchTables(t *testing.T) {
	raw, err := os.ReadFile("../../results/tables_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	tables, experiments := string(raw), string(doc)

	// Figure 8 carries the full-precision saving per circuit.
	saving := map[string]float64{}
	names := map[string]string{}
	var sum float64
	for _, line := range section(t, tables, "Figure 8:") {
		if idx, name, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = "); ok {
			names[idx] = name
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 || names[f[0]] == "" {
			continue
		}
		s16, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		saving[names[f[0]]] = s16
		sum += s16
	}
	if len(saving) != 17 {
		t.Fatalf("Figure 8 lists %d circuits, want 17", len(saving))
	}

	t10 := tableRows(t, tables, "Table 10:")
	t11 := tableRows(t, tables, "Table 11:")
	partition := mdRows(t, experiments, "## Tables 10 & 11")
	if len(partition) == 0 {
		t.Fatal("no Table 10/11 rows in EXPERIMENTS.md")
	}
	for c, cells := range partition {
		r16, ok := t10[c]
		if !ok {
			t.Fatalf("EXPERIMENTS.md Table 10 row %s is not in the tables", c)
		}
		nets24 := "—"
		if r24, ok := t11[c]; ok {
			nets24 = r24[4]
		}
		if want := []string{c, r16[4], r16[3], nets24}; strings.Join(cells, ",") != strings.Join(want, ",") {
			t.Errorf("EXPERIMENTS.md Tables 10/11 row %v, tables give %v", cells, want)
		}
	}

	t12 := tableRows(t, tables, "Table 12:")
	area := mdRows(t, experiments, "## Table 12")
	if len(area) != len(t12) {
		t.Errorf("EXPERIMENTS.md Table 12 has %d rows, the tables %d", len(area), len(t12))
	}
	for c, r := range t12 {
		want := []string{c, r[1], r[2], fmt.Sprintf("%.2f", saving[c])}
		if got := area[c]; strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("EXPERIMENTS.md Table 12 row %v, tables give %v", got, want)
		}
	}

	m := regexp.MustCompile(`Average saving: ([0-9.]+) percentage points`).FindStringSubmatch(experiments)
	if m == nil {
		t.Fatal("EXPERIMENTS.md quotes no average saving")
	}
	if want := fmt.Sprintf("%.1f", sum/float64(len(saving))); m[1] != want {
		t.Errorf("EXPERIMENTS.md average saving %s, tables give %s", m[1], want)
	}
}

// checkInvariants accepts a clean compile and rejects each broken
// invariant.
func TestCheckInvariantsRejectsCorruption(t *testing.T) {
	const lk = 16
	r, err := core.Compile(context.Background(), mustLoad("s510"), core.DefaultOptions(lk, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkInvariants(r, lk); err != nil {
		t.Fatalf("clean compile rejected: %v", err)
	}
	if checkInvariants(r, r.Partition.MaxInputs()-1) == nil {
		t.Error("cluster over l_k accepted")
	}

	bad := *r
	bad.Areas.CoveredCuts++
	if checkInvariants(&bad, lk) == nil {
		t.Error("covered + excess != cut nets accepted")
	}

	bad = *r
	sol := *r.Retiming
	sol.Rho = append([]int(nil), sol.Rho...)
	e := r.CombGraph.Edges[0]
	sol.Rho[e.From] = sol.Rho[e.To] + e.W + 1 // retimed weight -1
	bad.Retiming = &sol
	if checkInvariants(&bad, lk) == nil {
		t.Error("illegal retiming accepted")
	}

	v := r.Partition.Clusters[0].Nodes[0]
	saved := r.Partition.Assign[v]
	r.Partition.Assign[v] = len(r.Partition.Clusters) // no such cluster
	if checkInvariants(r, lk) == nil {
		t.Error("invalid partition accepted")
	}
	r.Partition.Assign[v] = saved
}
