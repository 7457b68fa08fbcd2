package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// allowed is the allow-list: exports under internal/ that only tests
// call, keyed pkg.Name or pkg.Type.Method. Only two kinds may stay, and
// each reason starts with its kind: a paper closed form that tests check
// the arrays' measured cycles, sizes or counts against, or a reference
// implementation that tests compare the program's results with.
var allowed = map[string]string{
	"analysis.FlushSpeedup":      "closed form: §2's asymptotic DBT-over-flush step advantage (4w−3)/(2w); tests check its limit",
	"analysis.MatMulComputeSpan": "closed form: §3's first-to-last-MAC span 3w·p̄n̄m̄ + 3w − 5; tests check it against MatMulSteps",
	"analysis.MatVecOps":         "closed form: §2's padded operation count n̄m̄w² behind the utilization formulas; tests derive η from it",
	"baseline.PRT":               "reference: the Priester et al. single-block array; tests check DBT reduces to it at n̄ = m̄ = 1",
	"dbt.MatMul.AHatBand":        "reference: materializes §3's Ā; tests check that it is a full upper band of width w",
	"dbt.MatMul.BHatBand":        "reference: materializes §3's B̄; tests check that it is a full lower band of width w",
	"dbt.MatMul.ReferenceRun":    "reference: block-level §3 recurrence without systolic timing; the hexagonal array is tested against it",
	"dbt.MatVec.Band":            "reference: materializes §2's Ā; tests check that it is a full band equal to the transform",
	"dbt.MatVec.BlockRecurrence": "reference: block-level §2 recurrence without systolic timing; the linear array is tested against it",
	"matrix.Band.Dense":          "reference: expands a band so tests compare band results with dense arithmetic",
	"matrix.Band.Mul":            "reference: the band product the hexagonal array is validated against",
	"matrix.Band.MulVec":         "reference: the band matrix–vector product the linear array is validated against",
	"matrix.Band.NonzeroCount":   "reference: counts filled band positions; tests compare it with StoredCount for §2's full-band claim",
	"matrix.Band.StoredCount":    "reference: counts in-matrix band positions; tests compare NonzeroCount against it",
	"schedule.BinCount":          "reference: reads a delay histogram; core's tests compare measured feedback delays with §3's register demand through it",
}

// moduleLine matches go.mod's module directive.
var moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// allowReason matches a reason that names its kind and then says why.
var allowReason = regexp.MustCompile(`^(closed form|reference): \S`)

// unusedExports reports, over the packages l checked, each exported
// package-level object or method declared under internal/ that no
// production code references (a func calling itself does not count). A
// method is also used when a package-level type of the module, or a
// pointer to it, satisfies an interface that names the method, declared
// in the module or in a standard-library package the module imports.
// Names in allow are not reported; an entry without a kind and reason, or
// for a name that is not a candidate or that is used, is. A name used
// only by another unused name shows up once that one is deleted.
func unusedExports(l *loader, allow map[string]string) []string {
	cand := map[types.Object]string{} // candidate → report name
	var named []*types.Named
	for pkg := range l.info {
		internal := strings.HasPrefix(pkg.Path(), l.module+"/internal/")
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if internal && obj.Exported() {
				cand[obj] = pkg.Name() + "." + name
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				n := tn.Type().(*types.Named)
				named = append(named, n)
				for i := 0; i < n.NumMethods(); i++ {
					if m := n.Method(i); internal && m.Exported() {
						cand[m] = pkg.Name() + "." + name + "." + m.Name()
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, info := range l.info {
		for id, obj := range info.Uses {
			fn, isFunc := obj.(*types.Func)
			if isFunc {
				obj = fn.Origin() // a method of an instantiated generic type
			}
			// A recursive call, inside the func's own body, is no use.
			if cand[obj] != "" && !(isFunc && fn.Origin().Scope().Contains(id.Pos())) {
				used[obj] = true
			}
		}
	}
	ifaces := l.interfaces()
	for _, n := range named {
		if types.IsInterface(n) || n.TypeParams().Len() > 0 {
			continue
		}
		for _, t := range []types.Type{n, types.NewPointer(n)} {
			for _, it := range ifaces {
				if !types.Implements(t, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(t, false, it.Method(i).Pkg(), it.Method(i).Name())
					used[m] = true
				}
			}
		}
	}

	var out []string
	known := map[string]bool{}
	for c, key := range cand {
		known[key] = true
		_, ok := allow[key]
		if !ok && !used[c] {
			pos := l.fset.Position(c.Pos())
			rel, _ := filepath.Rel(l.root, pos.Filename) // pos lies under the root
			out = append(out, fmt.Sprintf("%s:%d: exported %s has no use outside its declaration in non-test code", filepath.ToSlash(rel), pos.Line, key))
		}
		if ok && used[c] {
			out = append(out, fmt.Sprintf("allow-list entry %s is used outside tests; remove the entry", key))
		}
	}
	for key, reason := range allow {
		if !known[key] {
			out = append(out, fmt.Sprintf("allow-list entry %s names no exported object or method under internal/", key))
		} else if !allowReason.MatchString(reason) {
			out = append(out, fmt.Sprintf("allow-list entry %s needs a reason that starts with its kind (closed form: or reference:)", key))
		}
	}
	sort.Strings(out)
	return out
}

// loader type-checks the module's packages from source, once each, so all
// of them share one set of objects. Packages outside the module come from
// the standard library's source importer.
type loader struct {
	fset         *token.FileSet
	root, module string
	std          types.Importer
	pkgs         map[string]*types.Package // nil while a package is being checked
	info         map[*types.Package]*types.Info
}

// newLoader type-checks every non-test package of the module rooted at
// root: each directory that holds non-test Go files of the build,
// skipping testdata and dot or underscore directories. A nested module
// (perfbench) sits at its own path under the root module's, so one
// directory-to-path mapping serves both.
func newLoader(root string) (*loader, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := moduleLine.FindSubmatch(mod)
	if m == nil {
		return nil, fmt.Errorf("%s/go.mod declares no module", root)
	}
	// The source importer builds with build.Default; without cgo it checks
	// the pure-Go files of net and os/user instead of running the cgo tool.
	build.Default.CgoEnabled = false
	l := &loader{fset: token.NewFileSet(), root: root, module: string(m[1]),
		pkgs: map[string]*types.Package{}, info: map[*types.Package]*types.Info{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	return l, filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, dir) // dir lies under root
		_, err = l.Import(path.Join(l.module, filepath.ToSlash(rel)))
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		return err
	})
}

// Import type-checks the module package at pkgPath, memoized, and hands
// any other path to the standard library's importer.
func (l *loader) Import(pkgPath string) (*types.Package, error) {
	if pkgPath != l.module && !strings.HasPrefix(pkgPath, l.module+"/") {
		return l.std.Import(pkgPath)
	}
	if pkg, ok := l.pkgs[pkgPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", pkgPath)
		}
		return pkg, nil
	}
	dir := filepath.Join(l.root, strings.TrimPrefix(pkgPath, l.module))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	l.pkgs[pkgPath] = nil
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: l}).Check(pkgPath, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[pkgPath], l.info[pkg] = pkg, info
	return pkg, nil
}

// interfaces returns the error type, every interface type the module's
// code mentions, and every interface type written in the source of the
// standard-library packages the module imports, function bodies included
// (errors.Is finds Unwrap through an interface literal).
func (l *loader) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	std := map[*types.Package]bool{}
	for pkg, info := range l.info {
		for _, tv := range info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
		for _, imp := range pkg.Imports() {
			if l.info[imp] == nil {
				std[imp] = true
			}
		}
	}
	for pkg := range std {
		bp, err := build.Default.Import(pkg.Path(), "", 0)
		if err != nil {
			continue // its interfaces stay unknown, so more is reported, not less
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				// Checked in package scope: a literal that names a type
				// local to a function does not resolve and is skipped.
				if it, ok := n.(*ast.InterfaceType); ok {
					info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
					if types.CheckExpr(l.fset, pkg, token.NoPos, it, info) == nil {
						add(info.Types[it].Type)
					}
				}
				return true
			})
		}
	}
	return out
}
