package lint

import (
	"go/ast"
)

// Ctxhttp enforces cancellation hygiene on the request path. Drain
// (PR 4) and failover (PR 5) only work because every in-flight HTTP
// call can be cancelled through its context; a single http.Get pins a
// session to a dead edge until TCP gives up. The analyzer flags:
//
//   - the context-free request helpers http.Get/Post/PostForm/Head
//     anywhere in the tree (build the request with
//     http.NewRequestWithContext instead);
//   - http.NewRequest, which silently attaches context.Background
//     (use http.NewRequestWithContext);
//   - http.DefaultClient, which waits forever for an answer that never
//     comes (use proto.DefaultClient, which has dial and header
//     timeouts), and an http.Client literal setting neither Timeout nor
//     Transport (read from syntax: one with an elided type goes unseen);
//   - context.Background()/context.TODO() inside internal packages,
//     which sever the caller's cancellation chain — internal code takes
//     a ctx parameter; only the binaries in cmd/ and the examples own
//     context roots.
//
// A deliberate detached context (a lifecycle owned by a handle with
// its own Stop, say) is annotated with `//lodlint:allow bare-ctx` and a
// justification.
var Ctxhttp = &Analyzer{
	Name:  "ctxhttp",
	Alias: "bare-ctx",
	Doc:   "HTTP requests carry the caller's context; internal packages never mint context roots",
	Run:   runCtxhttp,
}

// ctxFreeHTTPFuncs are the net/http package helpers that issue a
// request with no context attached.
var ctxFreeHTTPFuncs = map[string]bool{
	"Get":      true,
	"Post":     true,
	"PostForm": true,
	"Head":     true,
}

func runCtxhttp(pass *Pass) {
	internal := pathIsInternal(pass.Pkg.ImportPath)
	for _, f := range pass.Pkg.Files {
		httpNames := importNames(f, "net/http")
		eachPkgCall(f, httpNames, func(call *ast.CallExpr, sel *ast.SelectorExpr) {
			switch {
			case ctxFreeHTTPFuncs[sel.Sel.Name]:
				pass.Reportf(call.Pos(),
					"http.%s is not cancellable: build the request with http.NewRequestWithContext and the caller's context so drain/failover can abort it",
					sel.Sel.Name)
			case sel.Sel.Name == "NewRequest":
				pass.Reportf(call.Pos(),
					"http.NewRequest attaches context.Background: use http.NewRequestWithContext with the caller's context")
			}
		})
		eachPkgSelector(f, httpNames, func(sel *ast.SelectorExpr) {
			if sel.Sel.Name == "DefaultClient" {
				pass.Reportf(sel.Pos(),
					"http.DefaultClient has no timeouts: a peer that never answers hangs the caller; use proto.DefaultClient")
			}
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok && bareClient(lit, httpNames) {
				pass.Reportf(lit.Pos(),
					"http.Client literal sets neither Timeout nor Transport: a peer that never answers hangs the caller; set one or use proto.DefaultClient")
			}
			return true
		})
		if !internal {
			continue
		}
		ctxNames := importNames(f, "context")
		eachPkgCall(f, ctxNames, func(call *ast.CallExpr, sel *ast.SelectorExpr) {
			if name := sel.Sel.Name; name == "Background" || name == "TODO" {
				pass.Reportf(call.Pos(),
					"context.%s in an internal package severs the caller's cancellation chain: accept a ctx parameter (a deliberately detached lifecycle may carry %s bare-ctx)",
					name, AllowDirective)
			}
		})
	}
}

// bareClient reports whether lit is an http.Client literal that names
// neither a Timeout nor a Transport; positional fields set them all.
func bareClient(lit *ast.CompositeLit, httpNames map[string]bool) bool {
	sel, ok := lit.Type.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Client" {
		return false
	}
	if id, ok := sel.X.(*ast.Ident); !ok || !isPkgRef(id, httpNames) {
		return false
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return false
		}
		if key, ok := kv.Key.(*ast.Ident); ok && (key.Name == "Timeout" || key.Name == "Transport") {
			return false
		}
	}
	return true
}
