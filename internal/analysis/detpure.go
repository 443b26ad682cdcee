package analysis

import (
	"go/ast"
	"go/types"
)

// DetPure enforces the bitwise-determinism contract: the paper's
// memory-bound SpMV makes ordered summation the correctness contract,
// so the kernel sweep and solver BLAS-1 paths promise bit-identical
// results across thread counts. Anything reachable from a function
// marked //spmv:deterministic must therefore avoid the three stdlib
// sources of run-to-run divergence: wall clocks (time.Now/Since),
// pseudo-randomness (math/rand, math/rand/v2), and map iteration
// (unspecified order). A map range whose result is explicitly
// order-normalized (collect keys, sort, then index) can be waived with
// //spmv:nondet-ok on the range line.
//
// Only Go bodies are walked: a function declared without one, such as
// internal/kernel's amd64 vector body of csrMultiRows or the tile body of
// bcsrMultiRows, is assembly this analyzer cannot see. That assembly is
// fenced by TestVectorBodyHasNoFMA (no fused multiply-add mnemonic in the
// package's *_amd64.s) and held to the CSR bits by FuzzCSRMultiRows and
// FuzzBCSRMultiRows.
var DetPure = &Analyzer{
	Name: "detpure",
	Doc:  "forbid time.Now, math/rand, and map iteration in //spmv:deterministic call paths",
	Run:  runDetPure,
}

func runDetPure(pass *Pass) error {
	decls := localDecls(pass)
	var roots []*ast.FuncDecl
	for _, fd := range decls {
		if _, ok := funcDirective(fd, "deterministic"); ok {
			roots = append(roots, fd)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	sortDecls(roots) // stable root attribution in messages
	for fd, via := range reachableFrom(pass, roots, decls) {
		root := via[0]
		ctx := declName(root)
		if fd != root {
			ctx = declName(fd) + " (reached from //spmv:deterministic " + declName(root) + ")"
		}
		checkDetPure(pass, fd, ctx)
	}
	return nil
}

func checkDetPure(pass *Pass, fd *ast.FuncDecl, ctx string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			f := calleeFunc(pass.TypesInfo, n)
			if f == nil {
				return true
			}
			if isPkgFunc(f, "time") && (f.Name() == "Now" || f.Name() == "Since" || f.Name() == "Until") {
				pass.Reportf(n.Pos(), "nondeterministic: time.%s in deterministic path %s", f.Name(), ctx)
			}
			if isPkgFunc(f, "math/rand") || isPkgFunc(f, "math/rand/v2") {
				pass.Reportf(n.Pos(), "nondeterministic: %s.%s in deterministic path %s", f.Pkg().Name(), f.Name(), ctx)
			}
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Map); ok && !pass.Suppressed(n.Pos(), "nondet-ok") {
				pass.Reportf(n.Pos(), "nondeterministic: map iteration order in deterministic path %s", ctx)
			}
		}
		return true
	})
}
