package netlist

import (
	"bufio"
	"errors"
	"runtime"
	"strings"
	"testing"
)

func TestScanBenchTolerant(t *testing.T) {
	stmts := ScanBenchString(`
# comment only
INPUT(a)
OUTPUT(y)
garbage here
y = AND(a, b)   # trailing comment
q = FROB(a)
b = DFF(y)
`)
	if len(stmts) != 6 {
		t.Fatalf("got %d stmts, want 6: %v", len(stmts), stmts)
	}
	want := []struct {
		line int
		kind StmtKind
		name string
	}{
		{3, StmtInput, "a"},
		{4, StmtOutput, "y"},
		{5, StmtBad, ""},
		{6, StmtGate, "y"},
		{7, StmtBad, ""},
		{8, StmtGate, "b"},
	}
	for i, w := range want {
		st := stmts[i]
		if st.Line != w.line || st.Kind != w.kind || st.Name != w.name {
			t.Errorf("stmt %d = line %d %v %q, want line %d %v %q",
				i, st.Line, st.Kind, st.Name, w.line, w.kind, w.name)
		}
	}
	if stmts[2].Err == "" || stmts[4].Err == "" {
		t.Error("bad statements must carry an Err reason")
	}
	if got := stmts[3].Fanin; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("AND fanin = %v", got)
	}
	if stmts[3].Type != And || stmts[3].TypeName != "AND" {
		t.Errorf("AND type = %v %q", stmts[3].Type, stmts[3].TypeName)
	}
}

func TestCircuitStmtsRoundTrip(t *testing.T) {
	c, err := ParseBenchString("t", `
INPUT(a)
OUTPUT(y)
y = NAND(a, q)
q = DFF(y)
`)
	if err != nil {
		t.Fatal(err)
	}
	stmts := c.Stmts()
	if len(stmts) != 4 {
		t.Fatalf("got %d stmts, want 4", len(stmts))
	}
	counts := map[StmtKind]int{}
	for _, st := range stmts {
		counts[st.Kind]++
		if st.Line != 0 {
			t.Errorf("API-built stmt has source line %d", st.Line)
		}
	}
	if counts[StmtInput] != 1 || counts[StmtOutput] != 1 || counts[StmtGate] != 2 {
		t.Fatalf("kind counts = %v", counts)
	}
}

// The scanner's buffer grows with the longest line, up to the 1 MiB cap:
// a 100 KiB line still scans, a line over the cap fails with
// bufio.ErrTooLong, and a small netlist does not pay for the cap.
func TestScanBenchLineLengths(t *testing.T) {
	long := strings.Repeat("n", 100<<10)
	stmts, err := ScanBench(strings.NewReader("INPUT(a)\nINPUT(" + long + ")\n"))
	if err != nil || len(stmts) != 2 || stmts[1].Kind != StmtInput || stmts[1].Name != long {
		t.Fatalf("100 KiB line: %d stmts, err %v", len(stmts), err)
	}
	_, err = ScanBench(strings.NewReader("INPUT(a)\n# " + strings.Repeat("x", maxBenchLine) + "\n"))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over 1 MiB: err %v, want bufio.ErrTooLong", err)
	}

	const s27 = `INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
`
	const runs, bound = 20, 64 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := ParseBenchString("s27", s27); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > bound {
		t.Errorf("parsing s27 allocates %d bytes, want at most %d", per, bound)
	}
}
