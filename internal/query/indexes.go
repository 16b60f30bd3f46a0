package query

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"postlob/internal/adt"
	"postlob/internal/btree"
	"postlob/internal/catalog"
	"postlob/internal/heap"
	"postlob/internal/txn"
)

// Secondary indexes on classes (paper §3): a B-tree over the value of an
// expression — a plain column, or a function invoked on a column, including
// functions of large objects ("indexing BLOB values, or the results of
// functions invoked on BLOBs"). Index entries map the expression value's
// 64-bit key to tuple TIDs; superseded tuple versions keep their entries
// and are filtered by visibility at fetch time, exactly like the chunk
// indexes inside the large-object implementations. Hash-keyed kinds (text,
// rect) re-verify the qualification on the fetched row, which also handles
// collisions.

// exprCache memoises parsed index expressions.
var exprCache sync.Map // canonical string -> expr

func parsedIndexExpr(canon string) (expr, error) {
	if e, ok := exprCache.Load(canon); ok {
		return e.(expr), nil
	}
	e, err := parseExprString(canon)
	if err != nil {
		return nil, fmt.Errorf("query: stored index expression %q: %w", canon, err)
	}
	exprCache.Store(canon, e)
	return e, nil
}

func (e *Engine) execDefineIndex(tx *txn.Txn, st *defineIndexStmt) (*Result, error) {
	cls, rel, err := e.openClass(st.class)
	if err != nil {
		return nil, err
	}
	if err := validateCols(cls, st.expr); err != nil {
		return nil, err
	}
	// The expression must range over this class only (or be constant).
	refs := map[string]bool{}
	classRefs(st.expr, refs)
	for name := range refs {
		if !strings.EqualFold(name, cls.Name) {
			return nil, fmt.Errorf("%w: index expression references %s", ErrMultiClass, name)
		}
	}
	canon := canonicalExpr(st.expr)
	def, err := e.store.Catalog().AddIndex(cls.Name, st.name, canon)
	if err != nil {
		return nil, err
	}
	idx, err := btree.Create(e.store.Pool().Buf, cls.SM, def.Rel, btree.Config{})
	if err != nil {
		return nil, err
	}

	// Build over the currently visible rows.
	session := e.store.NewSession(tx)
	defer session.Close()
	ev := &env{eng: e, tx: tx, session: session}
	entry := ev.bindClass(cls)
	built := 0
	err = rel.Scan(tx, func(tid heap.TID, data []byte) (bool, error) {
		row, err := adt.DecodeRow(data)
		if err != nil {
			return false, err
		}
		entry.row = row
		v, err := ev.eval(st.expr)
		if err != nil {
			return false, err
		}
		if err := idx.Insert(v.IndexKey(), heap.EncodeTID(tid)); err != nil {
			return false, err
		}
		built++
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Columns: []string{"indexed"}, Rows: [][]adt.Value{{adt.Int(int64(built))}}}, nil
}

// maintainIndexes adds entries for a newly inserted tuple version.
func (e *Engine) maintainIndexes(ev *env, cls *catalog.Class, row []adt.Value, tid heap.TID) error {
	if len(cls.Indexes) == 0 {
		return nil
	}
	entry := ev.bindClass(cls)
	entry.row = row
	defer func() { entry.row = nil }()
	for _, def := range cls.Indexes {
		x, err := parsedIndexExpr(def.Expr)
		if err != nil {
			return err
		}
		v, err := ev.eval(x)
		if err != nil {
			return err
		}
		idx, err := btree.Open(e.store.Pool().Buf, cls.SM, def.Rel, btree.Config{})
		if err != nil {
			return err
		}
		if err := idx.Insert(v.IndexKey(), heap.EncodeTID(tid)); err != nil {
			return err
		}
	}
	return nil
}

// indexProbe describes a usable equality probe found in a qualification.
type indexProbe struct {
	def catalog.IndexDef
	key adt.Value
}

// findIndexProbe looks for a conjunct of the form <indexed expr> = <value
// computable without a row> (either side) matching one of the class's
// indexes.
func (e *Engine) findIndexProbe(ev *env, cls *catalog.Class, qual expr) (*indexProbe, error) {
	if qual == nil || len(cls.Indexes) == 0 {
		return nil, nil
	}
	for _, conj := range conjuncts(qual) {
		b, ok := conj.(*binExpr)
		if !ok || b.op != "=" {
			continue
		}
		for _, side := range [][2]expr{{b.lhs, b.rhs}, {b.rhs, b.lhs}} {
			keyExpr, constExpr := side[0], side[1]
			if !exprIsRowFree(constExpr) {
				continue
			}
			canon := canonicalExpr(keyExpr)
			for _, def := range cls.Indexes {
				if def.Expr != canon {
					continue
				}
				v, err := ev.eval(constExpr)
				if err != nil {
					return nil, err
				}
				return &indexProbe{def: def, key: v}, nil
			}
		}
	}
	return nil, nil
}

// conjuncts flattens a tree of ANDs.
func conjuncts(x expr) []expr {
	if b, ok := x.(*binExpr); ok && b.op == "and" {
		return append(conjuncts(b.lhs), conjuncts(b.rhs)...)
	}
	return []expr{x}
}

// exprIsRowFree reports whether x evaluates without a current row.
func exprIsRowFree(x expr) bool {
	switch x := x.(type) {
	case *litExpr:
		return true
	case *colRef:
		return x.class == "" // a bound variable
	case *callExpr:
		for _, a := range x.args {
			if !exprIsRowFree(a) {
				return false
			}
		}
		return true
	case *binExpr:
		return exprIsRowFree(x.lhs) && exprIsRowFree(x.rhs)
	default:
		return false
	}
}

// indexScan drives a retrieve through an index probe: candidates from the
// B-tree, visibility via heap fetch, then full qualification re-check.
func (e *Engine) indexScan(ev *env, entry *scopeEntry, rel *heap.Relation, probe *indexProbe, qual expr, visit func() error) error {
	idx, err := btree.Open(e.store.Pool().Buf, entry.cls.SM, probe.def.Rel, btree.Config{})
	if err != nil {
		return err
	}
	vals, err := idx.Lookup(probe.key.IndexKey())
	if err != nil {
		return err
	}
	var prev uint64
	for i, v := range vals {
		// A stale entry whose slot was recycled by this key's own newer
		// version duplicates the fresh entry exactly; Lookup returns values
		// sorted, so identical TIDs are adjacent — visit each tuple once.
		if i > 0 && v == prev {
			continue
		}
		prev = v
		tid := heap.DecodeTID(v)
		data, err := rel.Fetch(ev.tx, tid)
		if err != nil {
			if isNotVisibleErr(err) {
				continue // a superseded version's stale entry
			}
			return err
		}
		row, err := adt.DecodeRow(data)
		if err != nil {
			return err
		}
		entry.row = row
		ok, err := e.matchRow(ev, qual)
		if err != nil {
			return err
		}
		if !ok {
			continue // hash collision or non-matching conjunct
		}
		if err := visit(); err != nil {
			return err
		}
	}
	return nil
}

func isNotVisibleErr(err error) bool {
	return errors.Is(err, heap.ErrNotVisible) || errors.Is(err, heap.ErrNoTuple)
}
