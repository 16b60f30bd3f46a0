// Package walorder defines an analyzer that enforces the write-ahead-log
// ordering discipline at its brittle seams.
//
// Rule 1: buffer.Pool.FlushRel and FlushAll write dirty pages to their home
// locations, so every call site must sit below the WAL flush ceiling — the
// machinery that makes a page's newest log record durable before the page
// itself — and a checkpoint's flush must follow its commit-log cut. Only
// postlob/internal/buffer, which implements the ceiling, and
// postlob/internal/core, whose Checkpoint is the one checkpoint body (the
// facade, crash recovery and a replica's receiver all run it), may call
// them. A flush call anywhere else (the receiver, a shell, the facade, an
// example) bypasses the checkpoint path and silently weakens the recovery
// contract.
//
// Rule 2: every wal.Append* function returns the record's LSN, and that LSN
// is the caller's only handle on durability — it must reach wal.Flush,
// FlushLazy, or a frame's recLSN. Discarding it (an expression statement, a
// go/defer statement, or assignment to the blank identifier) means the
// append can never be waited on: the record exists but nothing orders the
// matching data write after it.
//
// Rule 3: buffer.Pool.ApplyRedoImage overwrites a page with a logged image,
// bypassing the WAL append that every ordinary mutation carries — it is
// physical redo, sound only where replay owns the pool. Crash recovery and
// replication replay both go through the one dispatcher, core.Redo, so only
// postlob/internal/buffer and postlob/internal/core may call it; anywhere
// else it is a page write the log will never describe, silently
// un-replayable, or a second redo path that can drift from the first.
//
// Rule 4: a storage manager's Unlink removes a relation's storage, which is
// sound only in one order: the relation's buffered pages discarded first (a
// later write-back would recreate it), then an unlink record appended under
// a WAL (redo would resurrect it from earlier page images), then the
// storage removed. buffer.Pool.Unlink is that order, so only
// postlob/internal/buffer may call a manager's Unlink, besides
// postlob/internal/wal, which removes its own log segments, and
// postlob/internal/storage, whose wrapping managers delegate to the manager
// they wrap.
//
// Test files are exempt, as elsewhere in lobvet: tests may exercise flushes
// and appends directly.
package walorder

import (
	"go/ast"
	"go/types"
	"strings"

	"postlob/internal/analysis"
)

const (
	bufferPath  = "postlob/internal/buffer"
	walPath     = "postlob/internal/wal"
	storagePath = "postlob/internal/storage"
)

// flushPkgs are the packages allowed to call Pool.FlushRel / Pool.FlushAll:
// the pool itself and core, whose Checkpoint every checkpoint runs.
var flushPkgs = map[string]bool{
	"postlob/internal/buffer": true,
	"postlob/internal/core":   true,
}

// redoPkgs are the packages allowed to call Pool.ApplyRedoImage: the pool
// itself and core, whose Redo serves crash recovery and replication replay
// alike. Everywhere else it is a page write the WAL never describes.
var redoPkgs = map[string]bool{
	"postlob/internal/buffer": true,
	"postlob/internal/core":   true,
}

// unlinkPkgs are the packages allowed to call a storage manager's Unlink:
// the pool, whose Unlink is the one relation unlink, and the storage
// managers themselves. The WAL, which removes its own segments, is exempt
// from every rule.
var unlinkPkgs = map[string]bool{
	bufferPath:  true,
	storagePath: true,
}

// Analyzer reports flush, redo and storage-unlink calls outside their layers
// and discarded wal.Append* LSNs.
var Analyzer = &analysis.Analyzer{
	Name: "walorder",
	Doc:  "Pool flushes stay in buffer/core; storage unlinks go through buffer.Pool.Unlink; wal.Append* LSNs must not be discarded",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg == nil || pass.Pkg.Path() == walPath {
		// The log's own methods compose appends freely.
		return nil, nil
	}
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		checkFile(pass, file)
	}
	return nil, nil
}

// checkFile walks one file with a parent stack so each call expression can
// be judged against its enclosing statement.
func checkFile(pass *analysis.Pass, file *ast.File) {
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case bufferPath:
			if (fn.Name() == "FlushAll" || fn.Name() == "FlushRel") && !flushPkgs[pass.Pkg.Path()] {
				pass.Reportf(call.Pos(),
					"buffer.Pool.%s called from %s; page flushes must go through buffer or core.Checkpoint so the WAL flush ceiling and the commit-log cut are honored",
					fn.Name(), pass.Pkg.Path())
			}
			if fn.Name() == "ApplyRedoImage" && !redoPkgs[pass.Pkg.Path()] {
				pass.Reportf(call.Pos(),
					"buffer.Pool.ApplyRedoImage called from %s; physical redo goes through core.Redo, the one dispatcher crash recovery and replication replay share — elsewhere it is a page write the WAL never describes",
					pass.Pkg.Path())
			}
		case storagePath:
			if fn.Name() == "Unlink" && !unlinkPkgs[pass.Pkg.Path()] {
				pass.Reportf(call.Pos(),
					"storage Unlink called from %s; a relation is removed through buffer.Pool.Unlink, which discards its frames and logs the unlink before the storage goes",
					pass.Pkg.Path())
			}
		case walPath:
			if strings.HasPrefix(fn.Name(), "Append") {
				checkLSNUse(pass, call, fn.Name(), stack)
			}
		}
		return true
	})
}

// checkLSNUse flags an Append* call whose LSN result is discarded.
func checkLSNUse(pass *analysis.Pass, call *ast.CallExpr, name string, stack []ast.Node) {
	if len(stack) < 2 {
		return
	}
	switch parent := stack[len(stack)-2].(type) {
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(),
			"result of wal.%s discarded; the LSN is the only handle for ordering the data write after the log record", name)
	case *ast.GoStmt, *ast.DeferStmt:
		pass.Reportf(call.Pos(),
			"wal.%s in a go/defer statement discards its LSN; append synchronously and keep the result", name)
	case *ast.AssignStmt:
		// lsn, err := l.Append...(...) — the first variable is the LSN.
		if len(parent.Rhs) == 1 && parent.Rhs[0] == ast.Expr(call) && len(parent.Lhs) > 0 {
			if id, ok := parent.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
				pass.Reportf(call.Pos(),
					"LSN result of wal.%s assigned to the blank identifier; keep it and pass it to Flush or a recLSN", name)
			}
		}
	}
}

// callee resolves the called function's types object, if it is a named
// function or method.
func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, _ := analysis.ObjectOf(pass.TypesInfo, fun.Sel).(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := analysis.ObjectOf(pass.TypesInfo, fun).(*types.Func)
		return fn
	}
	return nil
}
