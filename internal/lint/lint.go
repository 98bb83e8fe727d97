// Package lint is the repo-native static-analysis suite behind `make
// lint` (cmd/lodlint): a small go/analysis-style framework plus five
// analyzers that turn the repository's load-bearing conventions into
// mechanically checked invariants.
//
// The conventions — and the analyzer that guards each — are:
//
//   - wirecontract: every wire-contract string (route prefixes, the /v1
//     version prefix, the failover exclude header, the start/bw query
//     parameters) lives in internal/proto and nowhere else. The
//     AST-level check supersedes the old `make api-check` grep: it also
//     catches literals composed through fmt.Sprintf or concatenation,
//     and it cannot false-positive on comments, because it only looks
//     at string literals.
//   - vclocktime: packages that participate in the virtual clock
//     (streaming, player, relay and its membership core, netsim,
//     catalog, edgecache) must take time from a vclock.Clock, never
//     from time.Now/Sleep/After/... directly — otherwise MemNet
//     benchmarks silently lose determinism.
//   - ctxhttp: HTTP requests are built with NewRequestWithContext,
//     internal packages derive contexts from their callers, and nothing
//     uses the timeout-free http.DefaultClient, so drain and failover
//     can actually cancel in-flight work.
//   - protoerror: server handlers answer errors with
//     proto.WriteError/WriteErr (the Error JSON body is the /v1
//     contract), not http.Error's text line.
//   - layering: one client stack — internal/relay imports neither the
//     player nor the SDK, internal/player does not import net/http, and
//     internal/client imports no server-tier package; the registry's
//     membership core imports no net/http, vclock, metrics or catalog;
//     the body oracle, internal/check, imports none of the streaming,
//     relay, client or edge cache code it judges.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic, testdata packages with `// want` expectations — see
// linttest) but is built only on the standard library's go/ast and
// go/parser, so the module keeps zero external dependencies. Analysis
// is purely syntactic: package-level references are resolved through
// each file's import table, which is exact for the patterns checked
// here (method calls on values, e.g. an *http.Client's Get, are out of
// scope and documented as such in DESIGN.md).
//
// # Escape hatch
//
// A finding that is genuinely intentional is suppressed with a
// directive comment on the offending line or on the line directly
// above it:
//
//	//lodlint:allow wall-clock  (report timestamps are wall time)
//
// The keyword is the analyzer's name or its alias (wirecontract:
// wire-literal, vclocktime: wall-clock, ctxhttp: bare-ctx, protoerror:
// http-error, layering: its name only). Everything after the keyword is
// free-form justification.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named check over a package's syntax.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -checks selections,
	// and //lodlint:allow directives.
	Name string
	// Alias is an alternative //lodlint:allow keyword (e.g. vclocktime
	// answers to "wall-clock"); empty means the name only.
	Alias string
	// Doc is the one-line description `lodlint -list` prints.
	Doc string
	// Run reports the analyzer's findings on pass.Pkg via pass.Reportf.
	Run func(pass *Pass)
}

// Allows reports whether the directive keyword kw addresses this
// analyzer.
func (a *Analyzer) Allows(kw string) bool {
	return kw == a.Name || (a.Alias != "" && kw == a.Alias)
}

// Package is one parsed package as the analyzers see it: the non-test
// Go files, their shared FileSet, and the import path the scoping
// rules key on.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the go-vet-style "file:line:col: message [analyzer]"
// form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// AllowDirective is the comment prefix that suppresses a finding.
const AllowDirective = "//lodlint:allow"

// allowedLines maps source line → the directive keywords allowed there.
// A directive allows its own line (end-of-line form) and the line below
// it (own-line form above the finding).
func allowedLines(fset *token.FileSet, f *ast.File) map[int][]string {
	var out map[int][]string
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, AllowDirective)
			if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			if out == nil {
				out = make(map[int][]string)
			}
			line := fset.Position(c.Pos()).Line
			out[line] = append(out[line], fields[0])
			out[line+1] = append(out[line+1], fields[0])
		}
	}
	return out
}

// Run executes the analyzers over the packages, drops findings covered
// by //lodlint:allow directives, and returns the survivors sorted by
// position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		allowed := make(map[string]map[int][]string) // filename → line → keywords
		for _, f := range pkg.Files {
			if m := allowedLines(pkg.Fset, f); m != nil {
				allowed[pkg.Fset.Position(f.Pos()).Filename] = m
			}
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg}
			a.Run(pass)
			for _, d := range pass.diags {
				if kws, ok := allowed[d.Pos.Filename][d.Pos.Line]; ok {
					suppressed := false
					for _, kw := range kws {
						if a.Allows(kw) {
							suppressed = true
							break
						}
					}
					if suppressed {
						continue
					}
				}
				out = append(out, d)
			}
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
	return out
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Wirecontract, Vclocktime, Ctxhttp, Protoerror, Layering}
}

// importNames returns every identifier that refers to the given import
// path in file f: the explicit local names and/or the path's last
// segment, empty when f does not import the path. Blank and dot imports
// (which this repository never uses) contribute nothing.
func importNames(f *ast.File, path string) map[string]bool {
	var out map[string]bool
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		name := p
		if i := strings.LastIndex(p, "/"); i >= 0 {
			name = p[i+1:]
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				continue
			}
			name = imp.Name.Name
		}
		if out == nil {
			out = make(map[string]bool)
		}
		out[name] = true
	}
	return out
}

// isPkgRef reports whether ident is a reference to a package imported
// under one of the given names — i.e. it is not resolved to any
// declaration in the file (parameters, locals, and same-file
// package-level objects all carry a parser-resolved Obj).
func isPkgRef(ident *ast.Ident, pkgNames map[string]bool) bool {
	return pkgNames[ident.Name] && ident.Obj == nil
}

// eachPkgSelector walks f and calls fn for every selector expression
// pkg.Name whose receiver is a reference to a package imported under
// one of pkgNames.
func eachPkgSelector(f *ast.File, pkgNames map[string]bool, fn func(sel *ast.SelectorExpr)) {
	if len(pkgNames) == 0 {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && isPkgRef(id, pkgNames) {
			fn(sel)
		}
		return true
	})
}

// eachPkgCall walks f and calls fn for every call pkg.Name(...) whose
// receiver is a reference to a package imported under one of pkgNames.
func eachPkgCall(f *ast.File, pkgNames map[string]bool, fn func(call *ast.CallExpr, sel *ast.SelectorExpr)) {
	if len(pkgNames) == 0 {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && isPkgRef(id, pkgNames) {
			fn(call, sel)
		}
		return true
	})
}

// pathIsInternal reports whether an import path names one of the
// module's internal packages (the scope in which context hygiene and
// the proto error contract are enforced).
func pathIsInternal(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}

// pathHasSuffix reports whether path is, or ends with, the given
// package suffix (e.g. "internal/proto" matches "repro/internal/proto").
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
