// Package analysis implements merced-vet, a suite of static analyzers
// that encode the repository's determinism and cancellation contracts:
//
//   - detmap: flags range-over-map loops whose body leaks iteration order
//     into results (appends, order-dependent assignments, output writes)
//     without a deterministic-order barrier — the AssignCBIT bug class.
//   - seedpurity: forbids math/rand, wall-clock reads, and unvetted map
//     iteration inside deterministic-kernel packages (flow, sim, fault,
//     retime, partition).
//   - ctxcheckpoint: heavy loops in context-carrying entry paths of core,
//     sweep, and fault must contain a ctx.Err()/ctx.Done() checkpoint or
//     delegate the context.
//   - counterflow: every counter field on an //obs:counters-marked result
//     struct must be written, and field-by-field counter copies must not
//     silently drop fields — the finalize() dropped-counters bug class.
//
// The types mirror a small subset of golang.org/x/tools/go/analysis so the
// analyzers read like standard vet passes, but the implementation is pure
// standard library: the container this repo builds in cannot fetch module
// dependencies, and go/ast + go/types carry everything these checks need.
// cmd/merced-vet drives the suite under the `go vet -vettool` protocol.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and enable flags.
	Name string
	// Doc is a one-paragraph description shown by `merced-vet help`.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass carries one package's syntax and type information to an
// Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver fills Category.
	Report func(Diagnostic)

	directives map[*ast.File]fileDirectives
}

// A Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos      token.Pos
	Category string // analyzer name
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether the file lives in a _test.go file. The
// determinism contracts govern production code; tests routinely use
// wall-clocks, map iteration, and randomness on purpose.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go")
}

// Suite returns the full merced-vet analyzer suite in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{Detmap, SeedPurity, CtxCheckpoint, CounterFlow}
}

// A Finding is a position-resolved diagnostic, ready to print.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// Run applies analyzers to one type-checked package and returns the
// findings sorted by position. Analyzer errors abort the run: an analyzer
// that cannot complete must not be mistaken for a clean pass.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		pass.Report = func(d Diagnostic) {
			if d.Category == "" {
				d.Category = a.Name
			}
			out = append(out, Finding{Analyzer: d.Category, Pos: fset.Position(d.Pos), Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// pathTail returns the last segment of an import path. Fixture packages in
// testdata use bare names ("flow"), real packages "repro/internal/flow";
// both classify the same way.
func pathTail(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// kernelPackages are the deterministic-kernel packages: their outputs feed
// byte-identical reports, so iteration order, randomness, and wall-clock
// reads are contract violations, not style.
var kernelPackages = map[string]bool{
	"flow":      true,
	"sim":       true,
	"fault":     true,
	"retime":    true,
	"partition": true,
	"verify":    true,
}

// entryPackages are the packages whose exported entry paths honor the
// context-cancellation contract established in PR 2. cas is here for its
// determinism contracts (detmap on the stats walks) even though its
// entry points are filesystem-bound rather than context-carrying. sim is
// here for its determinism contracts (the wide-lane kernel must stay
// map-iteration free); its entry points take no context, so ctxcheckpoint
// has nothing to flag there by construction.
var entryPackages = map[string]bool{
	"core":    true,
	"sweep":   true,
	"fault":   true,
	"jobspec": true,
	"cas":     true,
	"sim":     true,
}
