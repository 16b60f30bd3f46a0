// Package callgraph builds a static call graph over loaded packages and
// computes per-function lock summaries to a fixpoint, the interprocedural
// substrate for the lockorder and blockinlock analyzers.
//
// The call graph resolves three kinds of call sites:
//
//   - direct calls to functions and methods declared in the analyzed
//     packages,
//   - interface method calls, resolved RTA-style to every named type in the
//     program that implements the interface,
//   - calls through local closure variables bound exactly once to a func
//     literal (the `unlock := func() { ... }; ...; unlock()` idiom).
//
// Functions launched with `go` are analyzed independently but their lock
// effects never propagate into the spawning function: a new goroutine starts
// with an empty held-set. Deferred calls contribute their acquisitions and
// blocking operations at the defer statement, but their releases take effect
// only at function exit — `f.LockContent(); defer f.UnlockContent()` keeps
// the latch held for the remainder of the body.
//
// A lock summary records, for one function, the lock classes it may acquire
// (directly or transitively), the blocking operations it may reach, and its
// net effect on the caller's held-set (NetHeld / NetReleased). Lock classes
// are keyed by the receiver field path of the mutex — "buffer.partition.mu",
// "txn.Manager.mu" — so every partition mutex is one class, which is exactly
// the granularity the hierarchy check needs. Summaries are propagated over
// the call graph until they stop changing.
//
// The analysis is a may-analysis: a lock held on any path into a statement
// counts as held there. TryLock/TryRLock never block, so they are never the
// target of an acquisition edge; a try-lock that is the direct condition of
// an if statement is modeled branch-sensitively (held only on the success
// arm), any other try result is conservatively treated as not held.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"postlob/internal/analysis"
	"postlob/internal/analysis/cfg"
)

// LockClass identifies one equivalence class of locks by receiver field
// path, e.g. "buffer.partition.mu", "txn.Manager.mu", "wal.Log.ioMu".
// Locks reached through an accessor call are named "pkg.Type.method()".
type LockClass string

// Witness records where a summary fact was observed: the position in the
// summarized function, and the callee it came through (nil for a direct
// acquisition or blocking operation).
type Witness struct {
	Pos token.Pos
	Via *Function
}

// Summary is the lock behavior of one function as seen by its callers.
type Summary struct {
	// Acquires maps each lock class the function may blockingly acquire
	// (directly or transitively) to a witness for the acquisition.
	Acquires map[LockClass]Witness
	// Blocks maps each blocking operation the function may reach (channel
	// ops, sync.Cond.Wait, time.Sleep, storage syncs, ...) to a witness.
	Blocks map[string]Witness
	// NetHeld is the set of classes still held when the function returns.
	NetHeld map[LockClass]bool
	// NetReleased is the set of classes the function releases on behalf of
	// its caller (released without a matching local acquisition).
	NetReleased map[LockClass]bool
}

// Function is one node of the call graph: a declared function or method, or
// a function literal.
type Function struct {
	Pkg  *analysis.Package
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declarations
	Obj  *types.Func   // nil for literals
	Name string        // display name, e.g. "buffer.Pool.writeRun"
	Sum  Summary

	body      *ast.BlockStmt
	graph     *cfg.Graph
	events    map[*cfg.Block][]event
	branchTry map[*cfg.Block]*tryBranch
	linear    []event // fallback when the CFG is unanalyzable
}

// Pos returns the function's source position.
func (f *Function) Pos() token.Pos {
	if f.Decl != nil {
		return f.Decl.Pos()
	}
	if f.Lit != nil {
		return f.Lit.Pos()
	}
	return token.NoPos
}

// Edge is one lock-acquisition edge: To was blockingly acquired while From
// was held, at Pos inside Fn (possibly through a callee; Path renders the
// witness chain, e.g. "buffer.Pool.dropRelOnce → buffer.Pool.writeBackBatch").
type Edge struct {
	From, To LockClass
	Pos      token.Pos
	Fn       *Function
	Path     string
}

// BlockSite is one blocking operation reached while a lock was held.
type BlockSite struct {
	Held LockClass
	Op   string
	Pos  token.Pos
	Fn   *Function
	Path string
}

// Program is the analyzed whole program: its functions with fixpoint
// summaries, and the derived acquisition edges and blocking sites.
type Program struct {
	Fset     *token.FileSet
	Packages []*analysis.Package
	Funcs    []*Function
	Edges    []Edge
	Blocks   []BlockSite

	byObj map[*types.Func]*Function
}

// Shared returns the Program for the pass's packages, building it on first
// use and caching it on the pass so every program analyzer in one run shares
// a single call graph.
func Shared(pass *analysis.ProgramPass) *Program {
	if p, ok := pass.Cache["callgraph.Program"].(*Program); ok {
		return p
	}
	p := Build(pass.Packages)
	pass.Cache["callgraph.Program"] = p
	return p
}

// FuncByName returns the function with the given display name, or nil.
func (p *Program) FuncByName(name string) *Function {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Build constructs the call graph and lock summaries for pkgs. Test files
// (_test.go) are excluded: test helpers deliberately violate latch
// discipline, and the hierarchy is a production invariant.
func Build(pkgs []*analysis.Package) *Program {
	var fset *token.FileSet
	for _, pkg := range pkgs {
		if pkg != nil {
			fset = pkg.Fset
			break
		}
	}
	p := &Program{Fset: fset, byObj: make(map[*types.Func]*Function)}
	b := &progBuilder{
		p:          p,
		bindings:   make(map[types.Object]*ast.FuncLit),
		poisoned:   make(map[types.Object]bool),
		litFns:     make(map[*ast.FuncLit]*Function),
		implCache:  make(map[*types.Func][]*Function),
		classCache: make(map[types.Object]LockClass),
	}
	for _, pkg := range pkgs {
		if pkg == nil || pkg.Types == nil || pkg.Info == nil {
			continue
		}
		p.Packages = append(p.Packages, pkg)
	}
	for _, pkg := range p.Packages {
		for _, file := range pkg.Files {
			if isTestFile(pkg.Fset, file) {
				continue
			}
			b.collectFile(pkg, file)
		}
	}
	b.collectNamedTypes()
	b.collectBindings()
	for _, fn := range p.Funcs {
		b.collectEvents(fn)
	}
	p.fixpoint()
	p.finalPass()
	return p
}

func isTestFile(fset *token.FileSet, file *ast.File) bool {
	return strings.HasSuffix(fset.Position(file.Pos()).Filename, "_test.go")
}

// ---------------------------------------------------------------------------
// Graph construction

type eventKind int

const (
	evAcquire eventKind = iota
	evRelease
	evBlocked
	evCall
)

type event struct {
	kind     eventKind
	class    LockClass // acquire/release
	try      bool      // TryLock/TryRLock
	branch   bool      // try modeled branch-sensitively by the owning block
	deferred bool
	goCall   bool
	label    string // blocked-operation label
	targets  []*Function
	pos      token.Pos
}

type tryBranch struct {
	class   LockClass
	negated bool // `if !mu.TryLock()`: success flows into the second arm
}

type callMode int

const (
	modeNormal callMode = iota
	modeDefer
	modeGo
)

type progBuilder struct {
	p          *Program
	bindings   map[types.Object]*ast.FuncLit
	poisoned   map[types.Object]bool
	litFns     map[*ast.FuncLit]*Function
	named      []*types.Named
	implCache  map[*types.Func][]*Function
	classCache map[types.Object]LockClass
}

func (b *progBuilder) addFunc(fn *Function) {
	b.p.Funcs = append(b.p.Funcs, fn)
	if fn.Obj != nil {
		b.p.byObj[fn.Obj] = fn
	}
	if fn.Lit != nil {
		b.litFns[fn.Lit] = fn
	}
}

// collectFile registers every declared function and function literal in file
// as a call-graph node.
func (b *progBuilder) collectFile(pkg *analysis.Package, file *ast.File) {
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
			name := pkg.Name + "." + d.Name.Name
			if obj != nil {
				name = funcDisplayName(obj)
			}
			if d.Body == nil {
				continue
			}
			fn := &Function{Pkg: pkg, Decl: d, Obj: obj, Name: name, body: d.Body}
			b.addFunc(fn)
			b.collectLits(pkg, d.Body, name)
		case *ast.GenDecl:
			// Package-level `var f = func() { ... }`.
			b.collectLits(pkg, d, pkg.Name+".init")
		}
	}
}

func (b *progBuilder) collectLits(pkg *analysis.Package, root ast.Node, parent string) {
	ast.Inspect(root, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		name := fmt.Sprintf("%s.func:%d", parent, pkg.Fset.Position(lit.Pos()).Line)
		fn := &Function{Pkg: pkg, Lit: lit, Name: name, body: lit.Body}
		b.addFunc(fn)
		b.collectLits(pkg, lit.Body, name)
		return false
	})
}

func funcDisplayName(obj *types.Func) string {
	pkgName := ""
	if obj.Pkg() != nil {
		pkgName = obj.Pkg().Name() + "."
	}
	if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
		if n := namedOf(recv.Type()); n != nil {
			return pkgName + n.Obj().Name() + "." + obj.Name()
		}
	}
	return pkgName + obj.Name()
}

// namedOf unwraps pointers to the underlying named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	n, _ := t.(*types.Named)
	return n
}

// collectNamedTypes gathers every named type declared in the program, the
// candidate set for RTA interface resolution.
func (b *progBuilder) collectNamedTypes() {
	for _, pkg := range b.p.Packages {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				b.named = append(b.named, n)
			}
		}
	}
}

// collectBindings records local variables bound exactly once to a func
// literal, so `unlock := func(){...}; unlock()` resolves as a call edge.
// Any second assignment, or a non-literal initializer, poisons the binding.
func (b *progBuilder) collectBindings() {
	bind := func(pkg *analysis.Package, id *ast.Ident, rhs ast.Expr) {
		obj := analysis.ObjectOf(pkg.Info, id)
		if obj == nil || id.Name == "_" {
			return
		}
		lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
		if !ok || b.bindings[obj] != nil || b.poisoned[obj] {
			b.poisoned[obj] = true
			delete(b.bindings, obj)
			return
		}
		b.bindings[obj] = lit
	}
	for _, pkg := range b.p.Packages {
		for _, file := range pkg.Files {
			if isTestFile(pkg.Fset, file) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) != len(n.Rhs) {
						break
					}
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							bind(pkg, id, n.Rhs[i])
						}
					}
				case *ast.ValueSpec:
					if len(n.Names) != len(n.Values) {
						break
					}
					for i, id := range n.Names {
						bind(pkg, id, n.Values[i])
					}
				}
				return true
			})
		}
	}
}

func (b *progBuilder) binding(obj types.Object) *ast.FuncLit {
	if obj == nil || b.poisoned[obj] {
		return nil
	}
	return b.bindings[obj]
}

// implsOf resolves an interface method to every implementation declared in
// the program (RTA-style: all named types are considered live).
func (b *progBuilder) implsOf(m *types.Func) []*Function {
	if impls, ok := b.implCache[m]; ok {
		return impls
	}
	var out []*Function
	recv := m.Type().(*types.Signature).Recv()
	iface, _ := recv.Type().Underlying().(*types.Interface)
	if iface != nil {
		for _, n := range b.named {
			if types.IsInterface(n) {
				continue
			}
			if !types.Implements(n, iface) && !types.Implements(types.NewPointer(n), iface) {
				continue
			}
			sel := types.NewMethodSet(types.NewPointer(n)).Lookup(m.Pkg(), m.Name())
			if sel == nil {
				continue
			}
			if f, ok := sel.Obj().(*types.Func); ok {
				if fn := b.p.byObj[f]; fn != nil {
					out = append(out, fn)
				}
			}
		}
	}
	b.implCache[m] = out
	return out
}

// ---------------------------------------------------------------------------
// Lock class resolution

func isMutexName(name string) bool { return name == "Mutex" || name == "RWMutex" }

// classOf names the lock class of a mutex-valued expression: the receiver
// field path for field selectors, "pkg.var" for package-level variables, and
// for local variables the class of their (unique) initializer, including the
// accessor-call form "pkg.Type.method()".
func (b *progBuilder) classOf(fn *Function, e ast.Expr, depth int) LockClass {
	if depth > 5 {
		return ""
	}
	info := fn.Pkg.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Obj() != nil {
			if n := namedOf(sel.Recv()); n != nil && n.Obj().Pkg() != nil {
				return LockClass(n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + e.Sel.Name)
			}
		}
		// Package-qualified variable: pkg.GlobalMu.
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && !v.IsField() && v.Pkg() != nil {
			return LockClass(v.Pkg().Name() + "." + v.Name())
		}
	case *ast.Ident:
		obj := analysis.ObjectOf(info, e)
		v, ok := obj.(*types.Var)
		if !ok {
			return ""
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return LockClass(v.Pkg().Name() + "." + v.Name())
		}
		return b.traceLocal(fn, v, depth)
	case *ast.IndexExpr:
		return b.classOf(fn, e.X, depth+1)
	case *ast.StarExpr:
		return b.classOf(fn, e.X, depth+1)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return b.classOf(fn, e.X, depth+1)
		}
	}
	return ""
}

// traceLocal resolves a local mutex variable through its initializer.
func (b *progBuilder) traceLocal(fn *Function, v *types.Var, depth int) LockClass {
	if cls, ok := b.classCache[v]; ok {
		return cls
	}
	b.classCache[v] = "" // cut recursion through self-referential code
	var cls LockClass
	for _, file := range fn.Pkg.Files {
		if v.Pos() < file.FileStart || v.Pos() >= file.FileEnd {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if cls != "" {
				return false
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if ok && analysis.ObjectOf(fn.Pkg.Info, id) == v {
						cls = b.rhsClass(fn, n.Rhs[i], depth)
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) != len(n.Values) {
					return true
				}
				for i, id := range n.Names {
					if analysis.ObjectOf(fn.Pkg.Info, id) == v {
						cls = b.rhsClass(fn, n.Values[i], depth)
					}
				}
			}
			return true
		})
		break
	}
	b.classCache[v] = cls
	return cls
}

func (b *progBuilder) rhsClass(fn *Function, e ast.Expr, depth int) LockClass {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if callee := analysis.Callee(fn.Pkg.Info, call); callee != nil {
			return LockClass(funcDisplayName(callee) + "()")
		}
		return ""
	}
	return b.classOf(fn, e, depth+1)
}
