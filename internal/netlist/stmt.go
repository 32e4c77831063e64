package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// StmtKind classifies one .bench statement.
type StmtKind int

const (
	// StmtInput is an INPUT(name) declaration.
	StmtInput StmtKind = iota
	// StmtOutput is an OUTPUT(name) declaration.
	StmtOutput
	// StmtGate is a gate definition "name = TYPE(fanin, ...)".
	StmtGate
	// StmtBad is a line the grammar could not make sense of; Err holds the
	// reason. Lenient consumers (the linter) keep going, ParseBench stops.
	StmtBad
)

func (k StmtKind) String() string {
	switch k {
	case StmtInput:
		return "input"
	case StmtOutput:
		return "output"
	case StmtGate:
		return "gate"
	case StmtBad:
		return "bad"
	}
	return fmt.Sprintf("StmtKind(%d)", int(k))
}

// Stmt is one statement of a .bench file in source order. Unlike the
// Circuit built by ParseBench it survives malformed input: a statement the
// grammar rejects becomes StmtBad with Err set, and semantic violations
// (duplicate drivers, bad arity, undriven fanins) are NOT checked here, so
// a design-rule checker can report them all instead of stopping at the
// first.
type Stmt struct {
	// Line is the 1-based source line number.
	Line int
	Kind StmtKind
	// Name is the declared signal (inputs/outputs) or driven signal (gates).
	Name string
	// Type is the gate type for StmtGate.
	Type GateType
	// TypeName is the raw gate-type token as written.
	TypeName string
	// Fanin lists the gate's argument signals in source order.
	Fanin []string
	// Err describes why the line failed to scan (StmtBad only).
	Err string
}

// maxBenchLine caps the length of one .bench line. The scanner's buffer
// starts small and grows only as far as the longest line needs.
const maxBenchLine = 1 << 20

// ScanBench reads .bench text into a statement list without building a
// circuit. It never fails on malformed statements — those come back as
// StmtBad entries — and returns an error only for I/O problems, among
// them a line longer than 1 MiB (bufio.ErrTooLong). ParseBench is
// ScanBench plus circuit construction and validation.
func ScanBench(r io.Reader) ([]Stmt, error) {
	var stmts []Stmt
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxBenchLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		stmts = append(stmts, scanLine(lineNo, line))
	}
	if err := sc.Err(); err != nil {
		return stmts, err
	}
	return stmts, nil
}

// ScanBenchString is ScanBench over an in-memory string.
func ScanBenchString(text string) []Stmt {
	stmts, _ := ScanBench(strings.NewReader(text))
	return stmts
}

func scanLine(lineNo int, line string) Stmt {
	st := Stmt{Line: lineNo}
	upper := strings.ToUpper(line)
	switch {
	case strings.HasPrefix(upper, "INPUT(") || strings.HasPrefix(upper, "INPUT ("):
		arg, err := parenArg(line)
		if err != nil {
			return badStmt(st, err)
		}
		st.Kind = StmtInput
		st.Name = arg
		return st
	case strings.HasPrefix(upper, "OUTPUT(") || strings.HasPrefix(upper, "OUTPUT ("):
		arg, err := parenArg(line)
		if err != nil {
			return badStmt(st, err)
		}
		st.Kind = StmtOutput
		st.Name = arg
		return st
	}
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return badStmt(st, fmt.Errorf("unrecognised line %q", line))
	}
	name := normalizeName(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	close_ := strings.LastIndexByte(rhs, ')')
	if open < 0 || close_ < open {
		return badStmt(st, fmt.Errorf("malformed gate expression %q", rhs))
	}
	if name == "" {
		return badStmt(st, fmt.Errorf("empty gate name in %q", line))
	}
	tname := strings.ToUpper(strings.TrimSpace(rhs[:open]))
	t, ok := namesToType[tname]
	if !ok {
		return badStmt(st, fmt.Errorf("unknown gate type %q", tname))
	}
	var fanin []string
	for _, f := range strings.Split(rhs[open+1:close_], ",") {
		f = normalizeName(f)
		if f == "" {
			return badStmt(st, fmt.Errorf("empty fanin in %q", rhs))
		}
		fanin = append(fanin, f)
	}
	st.Kind = StmtGate
	st.Name = name
	st.Type = t
	st.TypeName = tname
	st.Fanin = fanin
	return st
}

func badStmt(st Stmt, err error) Stmt {
	st.Kind = StmtBad
	st.Err = err.Error()
	return st
}

// Stmts re-expresses a built circuit as a statement list (Line 0), so that
// statement-level design rules can run on circuits that never had .bench
// source text.
func (c *Circuit) Stmts() []Stmt {
	out := make([]Stmt, 0, len(c.Inputs)+len(c.Outputs)+len(c.Gates))
	for _, in := range c.Inputs {
		out = append(out, Stmt{Kind: StmtInput, Name: in})
	}
	for _, o := range c.Outputs {
		out = append(out, Stmt{Kind: StmtOutput, Name: o})
	}
	for _, g := range c.Gates {
		out = append(out, Stmt{
			Kind:     StmtGate,
			Name:     g.Name,
			Type:     g.Type,
			TypeName: g.Type.String(),
			Fanin:    append([]string(nil), g.Fanin...),
		})
	}
	return out
}
