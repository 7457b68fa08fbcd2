// Command doccheck is the documentation gate CI runs on every push: it
// fails when an internal package lacks a package doc comment, when an
// exported identifier of the engine- and runtime-facing packages
// (internal/core, internal/schedule, internal/stream, internal/sparse,
// the direct solvers, and the internal/solved HTTP facade) lacks a doc
// comment, when a relative markdown link in the top-level docs points at
// a file that does not exist, when a backticked package-qualified name
// (`dbt.NewMatVec`, `stream.Scheduler`) or stream Submit… name in
// README.md, DESIGN.md or EXPERIMENTS.md names no exported identifier of
// that internal package, or when an exported object or method under
// internal/ has no use in non-test code (the unused-export gate, see
// unusedExports).
//
// Usage:
//
//	doccheck            # check the repository rooted at the working directory
//	doccheck -root dir  # check another checkout
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"unicode"
)

// strictPackages are the packages whose every exported identifier must
// carry a doc comment (the public surface of the two-engine architecture,
// the stream-scheduler runtime, the pattern-keyed sparse path, and the
// direct solvers with their typed failure surface).
var strictPackages = map[string]bool{
	"core":     true,
	"schedule": true,
	"stream":   true,
	"sparse":   true,
	"solve":    true,
	"trisolve": true,
	"solved":   true,
}

// markdownFiles are the top-level documents whose relative links must
// resolve.
var markdownFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "PAPER.md"}

var problems int

// exports holds the top-level identifiers and method names of every
// internal package, keyed by package name and mapped to whether each is
// exported; checkAPINames reads them.
var exports = map[string]map[string]bool{}

func complain(format string, args ...interface{}) {
	problems++
	fmt.Fprintf(os.Stderr, "doccheck: "+format+"\n", args...)
}

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	dirs, err := filepath.Glob(filepath.Join(*root, "internal", "*"))
	if err != nil {
		complain("%v", err)
	}
	for _, dir := range dirs {
		if info, err := os.Stat(dir); err != nil || !info.IsDir() {
			continue
		}
		checkPackage(dir)
	}
	checkMarkdown(*root)
	checkAPINames(*root)
	if l, err := newLoader(*root); err != nil {
		complain("unused exports: %v", err)
	} else {
		for _, r := range unusedExports(l, allowed) {
			complain("%s", r)
		}
	}

	if problems > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problems\n", problems)
		os.Exit(1)
	}
	fmt.Println("doccheck: all package docs, exported docs, markdown links, package-qualified API names and internal exports clean")
}

// checkPackage parses one package directory and enforces the doc rules.
func checkPackage(dir string) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		complain("%s: %v", dir, err)
		return
	}
	for name, pkg := range pkgs {
		hasDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				hasDoc = true
			}
		}
		if !hasDoc {
			complain("package %s (%s) has no package doc comment", name, dir)
		}
		exports[name] = map[string]bool{}
		for path, f := range pkg.Files {
			checkExportedDocs(fset, path, f, exports[name], strictPackages[name])
		}
	}
}

// checkExportedDocs records each top-level and method name in names,
// mapped to whether it is exported, and, when strict, requires a doc
// comment on every exported top-level declaration (a group doc on a
// const/var/type block covers its members).
func checkExportedDocs(fset *token.FileSet, path string, f *ast.File, names map[string]bool, strict bool) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			names[d.Name.Name] = d.Name.IsExported()
			if strict && d.Name.IsExported() && d.Doc == nil {
				pos := fset.Position(d.Pos())
				complain("%s:%d: exported %s %s has no doc comment", path, pos.Line, kindOf(d), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names[s.Name.Name] = s.Name.IsExported()
					if strict && s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						pos := fset.Position(s.Pos())
						complain("%s:%d: exported type %s has no doc comment", path, pos.Line, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						names[name.Name] = name.IsExported()
						if strict && name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							pos := fset.Position(s.Pos())
							complain("%s:%d: exported %s %s has no doc comment", path, pos.Line, d.Tok, name.Name)
						}
					}
				}
			}
		}
	}
}

// kindOf names a func decl for the report: function or method.
func kindOf(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// mdLink matches [text](target) markdown links; images and autolinks are
// out of scope.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// checkMarkdown verifies that every relative link in the top-level docs
// resolves to an existing file or directory.
func checkMarkdown(root string) {
	for _, name := range markdownFiles {
		path := filepath.Join(root, name)
		blob, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				complain("required document %s is missing", name)
			} else {
				complain("%s: %v", name, err)
			}
			continue
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(blob), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(target))); err != nil {
				complain("%s: broken link %q", name, m[1])
			}
		}
	}
}

// apiDocs are the documents whose backticked API names must exist.
var apiDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	// fence matches a fenced code block; span an inline code span, which
	// may wrap across lines.
	fence = regexp.MustCompile("(?s)```.*?```")
	span  = regexp.MustCompile("`[^`]+`")
	// submitName matches a Submit… name with its optional qualifier;
	// qualName matches a package-qualified exported name (pkg.Name). Both
	// keep bracket shorthand (SubmitSolveInto[QoS]) and * wildcards
	// (Submit*Into).
	submitName = regexp.MustCompile(`(\w+\.)?(Submit[A-Z*\[][\w*\[\]]*)`)
	qualName   = regexp.MustCompile(`\b([a-z]\w*)\.([A-Z][\w*\[\]]*)`)
	bracket    = regexp.MustCompile(`\[(\w*)\]`)
)

// checkAPINames fails every backticked pkg.Name in the API documents whose
// pkg is an internal package and whose Name is no exported identifier of
// it, and every unqualified (or Scheduler-qualified) Submit… name that is
// no exported identifier of internal/stream, so a renamed or deleted
// identifier cannot linger in the docs. A Submit… name qualified by another
// type (Fleet.SubmitTo) is not the stream's and is skipped; so is a
// qualifier that is no internal package (a type, a file name, `go test`).
func checkAPINames(root string) {
	for _, name := range apiDocs {
		blob, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			complain("%s: %v", name, err)
			continue
		}
		text := string(blob)
		code := fence.FindAllString(text, -1)
		code = append(code, span.FindAllString(fence.ReplaceAllString(text, ""), -1)...)
		for _, c := range code {
			type ref struct{ pkg, name string }
			refs := map[ref]string{} // reference → as written
			for _, m := range submitName.FindAllStringSubmatch(c, -1) {
				if q := m[1]; q == "" || q == "Scheduler." || !unicode.IsUpper(rune(q[0])) {
					refs[ref{"stream", m[2]}] = m[0]
				}
			}
			for _, m := range qualName.FindAllStringSubmatch(c, -1) {
				if exports[m[1]] != nil {
					refs[ref{m[1], m[2]}] = m[0]
				}
			}
			for r, written := range refs {
				for _, x := range expandBrackets(r.name) {
					if !matchesExport(x, exports[r.pkg]) {
						complain("%s: `%s` names no exported identifier of internal/%s", name, written, r.pkg)
						break
					}
				}
			}
		}
	}
}

// expandBrackets expands optional-suffix shorthand: SubmitSolveInto[QoS]
// is SubmitSolveInto and SubmitSolveIntoQoS; each bracket doubles the set.
// An unbalanced bracket is returned as is and so fails the lookup.
func expandBrackets(name string) []string {
	loc := bracket.FindStringSubmatchIndex(name)
	if loc == nil {
		return []string{name}
	}
	head, opt, tail := name[:loc[0]], name[loc[2]:loc[3]], name[loc[1]:]
	var out []string
	for _, t := range expandBrackets(tail) {
		out = append(out, head+t, head+opt+t)
	}
	return out
}

// matchesExport reports whether name, where * stands for any identifier
// characters, matches at least one exported name.
func matchesExport(name string, exported map[string]bool) bool {
	if !strings.Contains(name, "*") {
		return exported[name]
	}
	re := regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(name), `\*`, `\w*`) + "$")
	for x, ok := range exported {
		if ok && re.MatchString(x) {
			return true
		}
	}
	return false
}
