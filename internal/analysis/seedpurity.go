package analysis

import (
	"go/ast"
	"go/types"
)

// SeedPurity enforces the deterministic-kernel contract on the packages
// whose outputs must be byte-identical for any worker count and cache
// state (flow, sim, fault, retime, partition, verify):
//
//   - the global math/rand source (rand.Intn, rand.Shuffle, rand.Seed, ...
//     in v1 or v2) is forbidden: kernels thread keyed seeds from options
//     into their own rand.New(rand.NewSource(seed)) instances, never
//     ambient process-wide PRNG state.
//   - wall-clock reads (time.Now / time.Since / time.Until) are forbidden:
//     timing belongs to the obs layer, which aggregates it outside the
//     deterministic result path. `//seedlint:wallclock <reason>` vouches
//     for metadata-only reads (e.g. an Elapsed field excluded from the
//     deterministic encoding).
//   - map iteration that feeds loop-dependent arguments into unvetted
//     calls is flagged: inside a kernel even "probably pure" helpers must
//     not run in map order without a `//detlint:ordered <reason>` vetting.
//
// Order-sensitive map-loop bodies (appends, argmin writes, ...) are
// detmap's to report; seedpurity adds only the kernel-strict gray zone, so
// the two analyzers compose without duplicate diagnostics.
var SeedPurity = &Analyzer{
	Name: "seedpurity",
	Doc: "forbid the global math/rand source, wall-clock reads, and unvetted map-order calls " +
		"in deterministic-kernel packages (flow, sim, fault, retime, partition, verify)",
	Run: runSeedPurity,
}

// wallClockFuncs are the time package functions that read the wall clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// seededRandFuncs construct explicitly-seeded generators: the sanctioned
// deterministic idiom. Everything else exported by math/rand{,/v2} draws
// from (or reseeds) the ambient global source.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runSeedPurity(pass *Pass) error {
	if !kernelPackages[pathTail(pass.Pkg.Path())] {
		return nil
	}
	for _, file := range pass.Files {
		if pass.IsTestFile(file) {
			continue
		}
		runSeedPurityFile(pass, file)
	}
	return nil
}

func runSeedPurityFile(pass *Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkg, ok := pass.TypesInfo.ObjectOf(id).(*types.PkgName)
		if !ok {
			return true
		}
		switch path := pkg.Imported().Path(); path {
		case "time":
			if wallClockFuncs[sel.Sel.Name] && !pass.suppressed(file, sel, DirWallClock) {
				pass.Reportf(sel.Pos(), "deterministic kernel reads the wall clock (time.%s): timing belongs to the obs layer", sel.Sel.Name)
			}
		case "math/rand", "math/rand/v2":
			// Only function uses count: rand.Rand / rand.Source in a
			// signature are types, not draws from the global state.
			if _, isFunc := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func); isFunc && !seededRandFuncs[sel.Sel.Name] {
				pass.Reportf(sel.Pos(), "deterministic kernel uses the global %s.%s source: thread keyed seeds from options into rand.New(rand.NewSource(seed)) instead", path, sel.Sel.Name)
			}
		}
		return true
	})

	forEachMapRange(pass, file, func(rng *ast.RangeStmt, fnBody *ast.BlockStmt) {
		if pass.suppressed(file, rng, DirOrdered) {
			return
		}
		for _, f := range pass.classifyMapRange(rng, fnBody) {
			if f.gray {
				pass.Reportf(f.pos, "%s (kernel packages require //detlint:ordered with a reason to vouch for it)", f.msg)
			}
		}
	})
}
