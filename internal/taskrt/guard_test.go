package taskrt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEnginesOnlyDeclareStages parses the non-test Go files of the three
// engines and fails on each place one builds a sched.TaskSpec or calls a
// method called Go (sim.Engine.Go spawns a proc): Stage, Job.Run and
// Job.Drive are an engine's only way to the task tracker and to a proc.
func TestEnginesOnlyDeclareStages(t *testing.T) {
	const schedPath = "github.com/datampi/datampi-go/internal/sched"
	fset := token.NewFileSet()
	parsed := 0
	for _, pkg := range []string{"mr", "core", "rdd"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			sched := "" // the file's name for package sched
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == schedPath {
					sched = "sched"
					if imp.Name != nil {
						sched = imp.Name.Name
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && sched != "" && x.Name == sched && n.Sel.Name == "TaskSpec" {
						t.Errorf("%s: builds a sched.TaskSpec; declare a taskrt.Stage", fset.Position(n.Pos()))
					}
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Go" {
						t.Errorf("%s: spawns a proc; let taskrt.Job.Drive spawn the driver", fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	}
	if parsed < 3 {
		t.Fatalf("parsed %d engine files", parsed)
	}
}
