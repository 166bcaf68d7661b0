// Package rcupublish catches snapshot-aliasing writes: mutations of
// values returned by accessors annotated "//ss:immutable" — adjacency
// slices from graph.Out/In, posting lists from index.List, HAMT leaves
// from persist.Map.At. Under the engine's RCU discipline those values
// alias the published snapshot that concurrent readers are walking;
// writing through them corrupts a version readers already hold,
// bypassing the copy-on-write path that makes snapshots O(1). The
// legal pattern is always Clone-then-mutate (or the package's own
// mutator, which COWs internally).
//
// Aliases are tracked syntactically within each function: a variable
// assigned from an annotated accessor (or derived from one by
// indexing, slicing, field selection, range, or append) is tainted;
// a Clone() call breaks the taint; reassignment from a fresh value
// clears it. Flagged writes: assignments and ++/-- through a tainted
// target, sort/copy over a tainted slice, and bare mutator-method
// calls (Set/Add/Merge/...) on a tainted receiver whose result is
// discarded — a discarded result is the signature of in-place intent,
// which keeps persistent-structure calls like persist.Map.Set (result
// used) legal.
//
// An accessor called on a deep clone (out := g.Clone(); out.Out(v))
// returns private elements in a container that is still the clone's own
// storage — graph.Out hands out the adjacency slice itself. Such a value
// is shallow-tainted: writing its elements' fields is legal, but element
// assignment, in-place sorts and copy into it are flagged.
package rcupublish

import (
	"go/ast"

	"socialscope/internal/analysis"
)

// Analyzer is the rcupublish pass.
var Analyzer = &analysis.Analyzer{
	Name: "rcupublish",
	Doc:  "never write through values returned by //ss:immutable accessors — Clone, then mutate",
	Run:  run,
}

// mutatorNames are method names that, called for effect (result
// discarded) on a tainted receiver, mutate it in place.
var mutatorNames = map[string]bool{
	"Set": true, "Add": true, "SetFloat": true, "SetScore": true,
	"Merge": true, "Consolidate": true, "Delete": true, "Clear": true,
}

// sortFns are pkg.Fn spellings that reorder their first argument in
// place.
var sortFns = map[string]bool{
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true,
	"sort.Stable": true, "sort.Ints": true, "sort.Strings": true, "sort.Float64s": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
	"slices.Reverse": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			newChecker(pass).check(fd.Body)
		}
	}
	return nil
}

// taint records the accessor a value aliases. A shallow taint covers only
// the container — the slice a deep clone's accessor returns — and not what
// its elements point to.
type taint struct {
	src     string
	shallow bool
}

// deep returns the accessor when writes through the value's elements or
// fields reach shared state, else "".
func (t taint) deep() string {
	if t.shallow {
		return ""
	}
	return t.src
}

type checker struct {
	pass    *analysis.Pass
	tainted map[string]taint // var name -> accessor it came from
	// cloned are variables assigned from a Clone() call: a deep clone is
	// private by contract, so accessors called ON it return private
	// elements (out := g.Clone(); out.Node(v) is writable) in a container
	// that is still the clone's storage — a shallow taint.
	cloned map[string]bool
}

func newChecker(pass *analysis.Pass) *checker {
	return &checker{pass: pass, tainted: make(map[string]taint), cloned: make(map[string]bool)}
}

// check walks one declaration body in lexical order, growing the taint
// set as it goes; closures share their enclosing function's variables,
// so nested literals are walked in the same pass.
func (c *checker) check(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			c.flagWrites(s)
			c.propagate(s)
		case *ast.IncDecStmt:
			if _, src := c.writeThrough(s.X); src != "" {
				c.pass.Reportf(s.Pos(),
					"increment through a value from %s mutates the published snapshot in place — Clone, then mutate", src)
			}
		case *ast.RangeStmt:
			c.propagateRange(s)
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				c.flagCall(call)
			}
		}
		return true
	})
}

// flagWrites reports assignment targets that write through taint.
// Plain rebinding of a variable itself is not a write through the alias.
func (c *checker) flagWrites(as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		if _, ok := lhs.(*ast.Ident); ok {
			continue
		}
		if what, src := c.writeThrough(lhs); src != "" {
			c.pass.Reportf(as.Pos(),
				"%s through a value from %s mutates the published snapshot in place — Clone, then mutate", what, src)
		}
	}
}

// writeThrough returns what writing target would change and the accessor
// it aliases, or "" when the write is private: an element write reaches
// any tainted container, a field or pointer write only a deep alias.
func (c *checker) writeThrough(target ast.Expr) (what, src string) {
	switch t := target.(type) {
	case *ast.IndexExpr:
		return "element write", c.taintSource(t.X).src
	case *ast.SelectorExpr:
		return "field write", c.taintSource(t.X).deep()
	case *ast.StarExpr:
		return "pointer write", c.taintSource(t.X).deep()
	}
	return "write", c.taintSource(target).deep()
}

// propagate updates the taint set from an assignment: lhs idents
// become tainted when their rhs is, and clean when reassigned fresh.
func (c *checker) propagate(as *ast.AssignStmt) {
	// Tuple-from-one-call (v, ok := m.Get(k)): taint every ident lhs.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		src := c.taintSource(as.Rhs[0])
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				c.setTaint(id.Name, src)
				c.setCloned(id.Name, false)
			}
		}
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" || i >= len(as.Rhs) {
			continue
		}
		c.setTaint(id.Name, c.taintSource(as.Rhs[i]))
		c.setCloned(id.Name, isCloneCall(as.Rhs[i]))
	}
}

// isCloneCall reports whether e is a direct X.Clone() call — the deep
// copy whose result (and everything accessed through it) is private.
func isCloneCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	_, name, ok := analysis.Callee(call)
	return ok && name == "Clone"
}

func (c *checker) setCloned(name string, v bool) {
	if v {
		c.cloned[name] = true
	} else {
		delete(c.cloned, name)
	}
}

func (c *checker) propagateRange(r *ast.RangeStmt) {
	t := c.taintSource(r.X)
	if t.shallow {
		return // a clone's elements are private
	}
	if id, ok := r.Value.(*ast.Ident); ok && id.Name != "_" && t.src != "" {
		c.setTaint(id.Name, t)
	}
}

func (c *checker) setTaint(name string, t taint) {
	if t.src == "" {
		delete(c.tainted, name)
	} else {
		c.tainted[name] = t
	}
}

// taintSource returns what an expression's value aliases; the zero taint
// when nothing. Reaching through a shallow-tainted container (indexing,
// field selection, dereference) yields private state.
func (c *checker) taintSource(e ast.Expr) taint {
	switch v := e.(type) {
	case *ast.Ident:
		return c.tainted[v.Name]
	case *ast.ParenExpr:
		return c.taintSource(v.X)
	case *ast.SliceExpr:
		return c.taintSource(v.X)
	case *ast.UnaryExpr:
		return c.taintSource(v.X)
	case *ast.IndexExpr:
		return taint{src: c.taintSource(v.X).deep()}
	case *ast.SelectorExpr:
		return taint{src: c.taintSource(v.X).deep()}
	case *ast.StarExpr:
		return taint{src: c.taintSource(v.X).deep()}
	case *ast.CallExpr:
		return c.callTaint(v)
	}
	return taint{}
}

// callTaint: annotated accessors seed taint (shallow on a deep clone);
// Clone launders it; append over a tainted slice may share its backing
// array.
func (c *checker) callTaint(call *ast.CallExpr) taint {
	if x, name, ok := analysis.Callee(call); ok {
		if name == "Clone" || name == "Copy" {
			return taint{} // an explicit copy is the sanctioned escape
		}
		if c.pass.Immutable.Has(name) {
			id, isIdent := x.(*ast.Ident)
			return taint{src: accessorLabel(c.pass, x, name), shallow: isIdent && c.cloned[id.Name]}
		}
		return taint{}
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if id.Name == "append" && len(call.Args) > 0 {
			// append may return the same backing array when capacity
			// allows — the result still aliases the snapshot.
			return c.taintSource(call.Args[0])
		}
		if c.pass.Immutable.Has(id.Name) {
			return taint{src: accessorLabel(c.pass, nil, id.Name)}
		}
	}
	return taint{}
}

// flagCall reports effectful calls that mutate through taint: sorts,
// copy-into, and discarded-result mutator methods.
func (c *checker) flagCall(call *ast.CallExpr) {
	if x, name, ok := analysis.Callee(call); ok {
		if id, isPkg := x.(*ast.Ident); isPkg && sortFns[id.Name+"."+name] && len(call.Args) > 0 {
			if src := c.taintSource(call.Args[0]).src; src != "" {
				c.pass.Reportf(call.Pos(),
					"%s.%s reorders a value from %s in place — readers of the snapshot see it mid-shuffle; Clone, then sort", id.Name, name, src)
				return
			}
		}
		if mutatorNames[name] {
			if src := c.taintSource(x).deep(); src != "" {
				c.pass.Reportf(call.Pos(),
					"%s() with a discarded result on a value from %s is an in-place mutation of the published snapshot — Clone first, or use the value-returning form", name, src)
			}
		}
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "copy" && len(call.Args) > 0 {
		if src := c.taintSource(call.Args[0]).src; src != "" {
			c.pass.Reportf(call.Pos(),
				"copy into a value from %s overwrites the published snapshot in place — Clone, then mutate", src)
		}
	}
}

func accessorLabel(pass *analysis.Pass, recv ast.Expr, name string) string {
	if sites := pass.Immutable.Sites(name); len(sites) == 1 {
		return sites[0] + " (//ss:immutable)"
	}
	label := name
	if recv != nil {
		if p := analysis.ExprPath(recv); p != "" {
			label = p + "." + name
		}
	}
	return label + " (//ss:immutable)"
}
