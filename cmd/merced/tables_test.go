package main

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
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

// merced tables renders Tables 10 and 12 from its lint-gated sweep with the
// rows the committed results/tables_all.txt holds for the same circuits.
func TestTablesMatchCommittedRows(t *testing.T) {
	raw, err := os.ReadFile("../../results/tables_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, title := range []string{"Table 10:", "Table 12:"} {
		table := strings.Fields(strings.TrimSuffix(title, ":"))[1]
		code, out, errs := runCLI(t, "tables", "-table", table, "-circuits", "s510,s641", "-no-timing")
		if code != 0 {
			t.Fatalf("tables -table %s: exit %d: %s", table, code, errs)
		}
		got, want := tableRows(t, "\n"+out, title), tableRows(t, string(raw), title)
		if len(got) != 2 {
			t.Fatalf("tables -table %s rendered rows %v, want s510 and s641", table, got)
		}
		for c, row := range got {
			if strings.Join(row, " ") != strings.Join(want[c], " ") {
				t.Errorf("%s row %v, committed %v", title, row, want[c])
			}
		}
	}
}

// A circuit that does not load fails the run before any table prints.
func TestTablesUnknownCircuit(t *testing.T) {
	code, out, errs := runCLI(t, "tables", "-circuits", "nosuch")
	if code != 1 || out != "" || !strings.Contains(errs, `"nosuch"`) {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 naming the circuit", code, out, errs)
	}
}
