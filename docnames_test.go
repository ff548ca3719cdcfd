package tflux_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goName matches a code span that names a Go identifier, `pkg.Ident`,
// `pkg.Type.Member` or `(*pkg.Type).Method`, optionally followed by a
// call, a composite literal or more words.
var goName = regexp.MustCompile(`^\(?\*?([a-z][a-z0-9]*)\.([A-Za-z]\w*)\)?(\.[A-Za-z]\w*)?(?:$|[.({\[ ])`)

// moduleNames parses every Go file of the module (the bench module aside)
// and returns its package names and the set of its "pkg.Name" and
// "pkg.Type.Member" names: package-level declarations, methods, struct
// fields and interface methods.
func moduleNames(t *testing.T) (pkgs, names map[string]bool) {
	pkgs, names = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || path == "testdata" || path != "." && d.Name()[0] == '.') {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgs[strings.TrimSuffix(f.Name.Name, "_test")] = true
		pkg := strings.TrimSuffix(f.Name.Name, "_test") + "."
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil {
					names[pkg+n.Name.Name] = true
				} else if recv, ok := recvName(n.Recv.List[0].Type); ok {
					names[pkg+recv+"."+n.Name.Name] = true
				}
				return false
			case *ast.ValueSpec:
				for _, id := range n.Names {
					names[pkg+id.Name] = true
				}
				return false
			case *ast.TypeSpec:
				names[pkg+n.Name.Name] = true
				var members *ast.FieldList
				switch t := n.Type.(type) {
				case *ast.StructType:
					members = t.Fields
				case *ast.InterfaceType:
					members = t.Methods
				default:
					return false
				}
				for _, fd := range members.List {
					for _, id := range fd.Names {
						names[pkg+n.Name.Name+"."+id.Name] = true
					}
				}
				return false
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs, names
}

// recvName is the type name of a method receiver (T, *T or T[P]).
func recvName(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name, true
	}
	return "", false
}

// TestDocsNameExistingCode resolves every backticked Go name of this
// module's packages in the documents against the source, so a rename or a
// deletion cannot leave a document describing code that is gone. An
// all-lowercase name such as `rts.queue_depth` is a metric, not Go.
// Fenced code blocks are skipped, and so is anything between
// <!-- historical --> and <!-- /historical -->: a record of deleted code
// names it on purpose.
func TestDocsNameExistingCode(t *testing.T) {
	pkgs, names := moduleNames(t)
	span := regexp.MustCompile("`([^`\n]+)`")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "DIRECTIVES.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced, historical := false, false
		for i, line := range strings.Split(string(data), "\n") {
			switch l := strings.TrimSpace(line); {
			case strings.HasPrefix(l, "```"):
				fenced = !fenced
			case l == "<!-- historical -->" || l == "<!-- /historical -->":
				historical = l == "<!-- historical -->"
			case !fenced && !historical:
				for _, m := range span.FindAllStringSubmatch(line, -1) {
					g := goName.FindStringSubmatch(m[1])
					if g == nil || g[1] == "main" || !pkgs[g[1]] || strings.ToLower(g[2]) == g[2] || strings.Contains(g[2], "_") {
						continue
					}
					for _, name := range []string{g[1] + "." + g[2], g[1] + "." + g[2] + g[3]} {
						if !names[name] {
							t.Errorf("%s:%d: `%s` names %s, which does not exist", doc, i+1, m[1], name)
							break
						}
					}
				}
			}
		}
		if historical {
			t.Errorf("%s: <!-- historical --> is never closed", doc)
		}
	}
}
