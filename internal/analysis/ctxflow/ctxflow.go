// Package ctxflow enforces context threading on the request path: in
// the serve layer, the routing tier and the facade, a function that has
// a context.Context (or an *http.Request, which carries one) must not
// mint a fresh context.Background()/TODO(), which silently detaches the
// call from the request's deadline. The serving tier's tail latency rests
// on cancellation propagating through the whole query path; one detached
// call reintroduces unbounded tail latency.
//
// The engine's read entry points (SearchCtx, QueryCtx, RecommendCtx,
// TopKCtx, DiscoverTaggedCtx) all take a context, so the compiler already
// forces every caller to pass one; this pass checks that a request path
// passes the one it has. Functions with no context in scope (background
// loops, warm-up, command-line tools) mint legally: nothing is dropped.
package ctxflow

import (
	"go/ast"

	"socialscope/internal/analysis"
)

// Analyzer is the ctxflow pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "request paths must thread the in-scope context, never mint context.Background()",
	Run:  run,
}

// scopedPkgs are the request-path packages. The routing tier is in
// scope for the same reason the serve layer is: a proxied request that
// loses its context keeps retrying and hedging against backends after
// the client hung up. (Its health checker and failover loop legally
// mint contexts — they run on their own cadence, with no request in
// scope.)
var scopedPkgs = map[string]bool{
	"socialscope":                true,
	"socialscope/internal/serve": true,
	"socialscope/internal/route": true,
	"socialscope/cmd/ssrouter":   true,
}

func run(pass *analysis.Pass) error {
	if !scopedPkgs[pass.Pkg.Path] {
		return nil
	}
	for _, file := range pass.Pkg.Files {
		f := file
		analysis.EachFunc(file, func(_ string, ft *ast.FuncType, body *ast.BlockStmt) {
			ctxName := contextParam(f, ft)
			if ctxName == "" {
				return
			}
			ast.Inspect(body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isContextMint(f, call) {
					pass.Reportf(call.Pos(),
						"fresh context on a request path detaches from %s's deadline: thread the caller's context", ctxName)
				}
				return true
			})
		})
	}
	return nil
}

// contextParam returns how the function can reach a request context:
// the name of a non-blank context.Context parameter, or "r.Context()"
// for an *http.Request parameter r. "" means no context in scope.
func contextParam(file *ast.File, ft *ast.FuncType) string {
	if ft.Params == nil {
		return ""
	}
	ctxPkg, hasCtx := analysis.ImportLocal(file, "context")
	httpPkg, hasHTTP := analysis.ImportLocal(file, "net/http")
	for _, field := range ft.Params.List {
		if hasCtx && isSelType(field.Type, ctxPkg, "Context") {
			if name := fieldName(field); name != "" {
				return name
			}
		}
		if hasHTTP {
			if star, ok := field.Type.(*ast.StarExpr); ok && isSelType(star.X, httpPkg, "Request") {
				if name := fieldName(field); name != "" {
					return name + ".Context()"
				}
			}
		}
	}
	return ""
}

func fieldName(field *ast.Field) string {
	for _, n := range field.Names {
		if n.Name != "_" {
			return n.Name
		}
	}
	return ""
}

func isSelType(t ast.Expr, pkg, name string) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

func isContextMint(file *ast.File, call *ast.CallExpr) bool {
	return analysis.IsPkgCall(file, call, "context", "Background") ||
		analysis.IsPkgCall(file, call, "context", "TODO")
}
