// forkjoin fails when a go statement appears outside kernel.Run in the
// non-test Go files it is given (directories are read one level deep):
// the kernels, the solver and the public API fork through that one
// function. CI runs
//
//	go run ./scripts/forkjoin internal/kernel internal/solve spmv.go
//
// and prints every stray go statement with its position.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var files []string
	for _, arg := range os.Args[1:] {
		if st, err := os.Stat(arg); err == nil && st.IsDir() {
			matches, _ := filepath.Glob(filepath.Join(arg, "*.go"))
			files = append(files, matches...)
		} else {
			files = append(files, arg)
		}
	}
	fset := token.NewFileSet()
	checked, stray := 0, 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		checked++
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			fmt.Fprintln(os.Stderr, "forkjoin:", err)
			os.Exit(2)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Recv == nil && fd.Name.Name == "Run" && f.Name.Name == "kernel" {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					fmt.Fprintf(os.Stderr, "%s: go statement outside kernel.Run\n", fset.Position(g.Pos()))
					stray++
				}
				return true
			})
		}
	}
	if stray > 0 {
		os.Exit(1)
	}
	fmt.Printf("forkjoin: %d files, every go statement is in kernel.Run\n", checked)
}
