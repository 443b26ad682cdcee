package analysis

import (
	"go/ast"
	"go/types"
)

// SnapshotOnce enforces the copy-on-write snapshot discipline promotion
// depends on: a request path loads the
// serving snapshot (an atomic.Pointer field) exactly once and carries
// the loaded value through the whole sweep. A second Load of the same
// pointer inside one function can observe a different generation — the
// torn-generation bug class the swap-race tests hunt dynamically (gate
// admission priced on one generation while the sweep runs another, a
// trace attributing a sweep to the wrong generation). Closures count as
// part of their enclosing declaration: the visible re-load is what
// matters, not the call boundary. Intentional re-reads (a writer
// checking whether an operator is still the serving one after a
// promotion) are waived line-by-line with //spmv:reload-ok.
//
// Test files are skipped: tests legitimately load before and after a
// promotion to assert the swap happened.
var SnapshotOnce = &Analyzer{
	Name: "snapshotonce",
	Doc:  "an atomic.Pointer snapshot is loaded at most once per function body",
	Run:  runSnapshotOnce,
}

func runSnapshotOnce(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.isTestFile(f) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSnapshotOnce(pass, fd)
		}
	}
	return nil
}

func checkSnapshotOnce(pass *Pass, fd *ast.FuncDecl) {
	seen := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Load" {
			return true
		}
		recv := pass.TypesInfo.TypeOf(sel.X)
		if recv == nil || !namedIn(recv, "sync/atomic", "Pointer") {
			return true
		}
		key := types.ExprString(sel.X)
		if !seen[key] {
			seen[key] = true
			return true
		}
		if pass.Suppressed(call.Pos(), "reload-ok") {
			return true
		}
		pass.Reportf(call.Pos(), "snapshot %s.Load() called again in %s: load once per request path and reuse the value (or annotate //spmv:reload-ok with a reason)", key, declName(fd))
		return true
	})
}
