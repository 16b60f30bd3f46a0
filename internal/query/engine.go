package query

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"postlob/internal/adt"
	"postlob/internal/catalog"
	"postlob/internal/compress"
	"postlob/internal/core"
	"postlob/internal/heap"
	"postlob/internal/storage"
	"postlob/internal/txn"
)

// Errors returned by the executor.
var (
	ErrNoClassRef   = errors.New("query: statement references no class")
	ErrMultiClass   = errors.New("query: statement allows one class here")
	ErrUnknownCol   = errors.New("query: unknown column")
	ErrUnbound      = errors.New("query: unbound variable")
	ErrTypeMismatch = errors.New("query: value does not match column type")
	ErrNotBool      = errors.New("query: qualification is not boolean")
)

// Engine executes statements against a large-object store and its catalog.
// Engines are safe for concurrent use; bound variables are shared across
// the engine's users.
type Engine struct {
	store *core.Store

	bindMu sync.RWMutex
	binds  map[string]adt.Value
}

// New creates an engine and registers the built-in large-object functions
// (newfilename, newlobj, lobj_size, lobj_read, lobj_write) if absent.
func New(store *core.Store) *Engine {
	e := &Engine{store: store, binds: make(map[string]adt.Value)}
	e.registerBuiltins()
	return e
}

// Let binds a free variable usable in subsequent statements — the paper's
// two-step p-file idiom binds "result" this way:
//
//	retrieve (result = newfilename())
//	append EMP (name = "Joe", picture = result)
func (e *Engine) Let(name string, v adt.Value) {
	e.bindMu.Lock()
	e.binds[name] = v
	e.bindMu.Unlock()
}

// bound looks up a free variable.
func (e *Engine) bound(name string) (adt.Value, bool) {
	e.bindMu.RLock()
	defer e.bindMu.RUnlock()
	v, ok := e.binds[name]
	return v, ok
}

// Result holds a query's output. Close releases the temporary large objects
// the query created (end-of-query garbage collection, §5); results holding
// object handles must be consumed first.
type Result struct {
	Columns []string
	Rows    [][]adt.Value

	// UsedIndex names the secondary index that drove the scan, if any.
	UsedIndex string

	session *core.Session
}

// Close garbage-collects the query's temporaries.
func (r *Result) Close() error {
	if r == nil || r.session == nil {
		return nil
	}
	return r.session.Close()
}

// First returns the first value of the first row, for single-value queries.
func (r *Result) First() (adt.Value, bool) {
	if len(r.Rows) == 0 || len(r.Rows[0]) == 0 {
		return adt.Null(), false
	}
	return r.Rows[0][0], true
}

// Exec parses and runs one statement under tx.
func (e *Engine) Exec(tx *txn.Txn, src string) (*Result, error) {
	st, err := parse(src)
	if err != nil {
		return nil, err
	}
	switch st := st.(type) {
	case *createLargeTypeStmt:
		return &Result{}, e.execCreateLargeType(st)
	case *createClassStmt:
		return &Result{}, e.execCreateClass(st)
	case *appendStmt:
		return e.execAppend(tx, st)
	case *retrieveStmt:
		return e.execRetrieve(tx, st)
	case *deleteStmt:
		return e.execDelete(tx, st)
	case *replaceStmt:
		return e.execReplace(tx, st)
	case *defineIndexStmt:
		return e.execDefineIndex(tx, st)
	default:
		return nil, fmt.Errorf("query: unhandled statement %T", st)
	}
}

func parseSM(name string, dflt storage.ID) (storage.ID, error) {
	switch strings.ToLower(name) {
	case "":
		return dflt, nil
	case "disk":
		return storage.Disk, nil
	case "mem", "memory", "mmain":
		return storage.Mem, nil
	case "worm", "jukebox", "sony":
		return storage.Worm, nil
	default:
		return 0, fmt.Errorf("query: unknown storage manager %q", name)
	}
}

func (e *Engine) execCreateLargeType(st *createLargeTypeStmt) error {
	if !strings.EqualFold(st.input, st.output) {
		return fmt.Errorf("%w: input=%s output=%s", adt.ErrCodecMismatch, st.input, st.output)
	}
	codecName := st.input
	if strings.EqualFold(codecName, "none") {
		codecName = ""
	}
	codec, ok := compress.Lookup(codecName)
	if !ok {
		return fmt.Errorf("query: unknown conversion routine %q", st.input)
	}
	kind, err := adt.ParseStorageKind(st.storage)
	if err != nil {
		return err
	}
	sm, err := parseSM(st.smgr, e.store.DefaultSM())
	if err != nil {
		return err
	}
	if err := e.store.Registry().CreateLargeType(adt.LargeType{
		Name: st.name, Kind: kind, Codec: codec, SM: sm,
	}); err != nil {
		return err
	}
	// Persist the definition so the type survives restarts (codecs are
	// named built-ins; only Go-closure functions need re-registration).
	return e.store.Catalog().PutLargeType(catalog.LargeTypeDef{
		Name: st.name, Kind: kind, Codec: codecName, SM: sm,
	})
}

func (e *Engine) execCreateClass(st *createClassStmt) error {
	sm, err := parseSM(st.smgr, e.store.DefaultSM())
	if err != nil {
		return err
	}
	cols := make([]catalog.Column, len(st.cols))
	for i, c := range st.cols {
		if err := e.checkColumnType(c.typ); err != nil {
			return err
		}
		cols[i] = catalog.Column{Name: c.name, Type: c.typ}
	}
	cls, err := e.store.Catalog().CreateClass(st.name, sm, cols)
	if err != nil {
		return err
	}
	_, err = heap.Create(e.store.Pool(), sm, cls.Rel)
	return err
}

func (e *Engine) checkColumnType(typ string) error {
	switch strings.ToLower(typ) {
	case "int4", "text", "bool", "rect", "large-object":
		return nil
	}
	if _, err := e.store.Registry().LargeTypeByName(typ); err != nil {
		return fmt.Errorf("query: unknown column type %q", typ)
	}
	return nil
}

// --- evaluation ------------------------------------------------------------------

// scopeEntry is one class's current row during evaluation.
type scopeEntry struct {
	cls *catalog.Class
	row []adt.Value
}

type env struct {
	eng     *Engine
	tx      *txn.Txn
	session *core.Session
	scope   map[string]*scopeEntry // lowercase class name -> current row
}

// bindClass puts cls in scope and returns its entry for row updates.
func (ev *env) bindClass(cls *catalog.Class) *scopeEntry {
	if ev.scope == nil {
		ev.scope = make(map[string]*scopeEntry)
	}
	e := &scopeEntry{cls: cls}
	ev.scope[strings.ToLower(cls.Name)] = e
	return e
}

func (ev *env) callCtx() *adt.CallContext {
	return &adt.CallContext{Store: ev.session}
}

func (ev *env) eval(x expr) (adt.Value, error) {
	switch x := x.(type) {
	case *litExpr:
		return ev.evalLit(x)
	case *colRef:
		if x.class == "" {
			if v, ok := ev.eng.bound(x.col); ok {
				return v, nil
			}
			return adt.Null(), fmt.Errorf("%w: %s", ErrUnbound, x.col)
		}
		entry, ok := ev.scope[strings.ToLower(x.class)]
		if !ok || entry.row == nil {
			return adt.Null(), fmt.Errorf("%w: %s.%s (class not in scope)", ErrUnknownCol, x.class, x.col)
		}
		i := entry.cls.ColumnIndex(x.col)
		if i < 0 {
			return adt.Null(), fmt.Errorf("%w: %s.%s", ErrUnknownCol, x.class, x.col)
		}
		return entry.row[i], nil
	case *callExpr:
		fn, err := ev.eng.store.Registry().Function(x.fn)
		if err != nil {
			return adt.Null(), err
		}
		args := make([]adt.Value, len(x.args))
		for i, a := range x.args {
			v, err := ev.eval(a)
			if err != nil {
				return adt.Null(), err
			}
			args[i] = v
		}
		return fn.Call(ev.callCtx(), args)
	case *binExpr:
		return ev.evalBin(x)
	default:
		return adt.Null(), fmt.Errorf("query: unhandled expression %T", x)
	}
}

func (ev *env) evalLit(l *litExpr) (adt.Value, error) {
	switch strings.ToLower(l.cast) {
	case "":
		if l.isNum {
			n, err := parseIntLit(l.text)
			if err != nil {
				return adt.Null(), fmt.Errorf("query: bad number %q", l.text)
			}
			return adt.Int(n), nil
		}
		if l.text == "true" {
			return adt.Bool(true), nil
		}
		if l.text == "false" {
			return adt.Bool(false), nil
		}
		return adt.Text(l.text), nil
	case "int4":
		n, err := parseIntLit(l.text)
		if err != nil {
			return adt.Null(), fmt.Errorf("query: cannot cast %q to int4", l.text)
		}
		return adt.Int(n), nil
	case "text":
		return adt.Text(l.text), nil
	case "bool":
		switch strings.ToLower(l.text) {
		case "true", "t", "1":
			return adt.Bool(true), nil
		case "false", "f", "0":
			return adt.Bool(false), nil
		}
		return adt.Null(), fmt.Errorf("query: cannot cast %q to bool", l.text)
	case "rect":
		r, err := adt.ParseRect(l.text)
		if err != nil {
			return adt.Null(), err
		}
		return adt.RectVal(r), nil
	default:
		return adt.Null(), fmt.Errorf("query: unknown cast ::%s", l.cast)
	}
}

func (ev *env) evalBin(b *binExpr) (adt.Value, error) {
	if b.op == "and" || b.op == "or" {
		lv, err := ev.eval(b.lhs)
		if err != nil {
			return adt.Null(), err
		}
		if lv.Kind != adt.KindBool {
			return adt.Null(), fmt.Errorf("%w: %s operand", ErrNotBool, b.op)
		}
		if b.op == "and" && !lv.Bool {
			return adt.Bool(false), nil
		}
		if b.op == "or" && lv.Bool {
			return adt.Bool(true), nil
		}
		rv, err := ev.eval(b.rhs)
		if err != nil {
			return adt.Null(), err
		}
		if rv.Kind != adt.KindBool {
			return adt.Null(), fmt.Errorf("%w: %s operand", ErrNotBool, b.op)
		}
		return rv, nil
	}
	op, err := ev.eng.store.Registry().Operator(b.op)
	if err != nil {
		return adt.Null(), err
	}
	lv, err := ev.eval(b.lhs)
	if err != nil {
		return adt.Null(), err
	}
	rv, err := ev.eval(b.rhs)
	if err != nil {
		return adt.Null(), err
	}
	return op.Call(ev.callCtx(), []adt.Value{lv, rv})
}

// validateCols checks that every qualified column reference names a real
// column of cls.
func validateCols(cls *catalog.Class, x expr) error {
	switch x := x.(type) {
	case nil:
		return nil
	case *colRef:
		if x.class != "" && strings.EqualFold(x.class, cls.Name) && cls.ColumnIndex(x.col) < 0 {
			return fmt.Errorf("%w: %s.%s", ErrUnknownCol, x.class, x.col)
		}
	case *callExpr:
		for _, a := range x.args {
			if err := validateCols(cls, a); err != nil {
				return err
			}
		}
	case *binExpr:
		if err := validateCols(cls, x.lhs); err != nil {
			return err
		}
		return validateCols(cls, x.rhs)
	}
	return nil
}

// classRefs collects the class names an expression mentions.
func classRefs(x expr, out map[string]bool) {
	switch x := x.(type) {
	case *colRef:
		if x.class != "" {
			out[x.class] = true
		}
	case *callExpr:
		for _, a := range x.args {
			classRefs(a, out)
		}
	case *binExpr:
		classRefs(x.lhs, out)
		classRefs(x.rhs, out)
	}
}

// --- statement execution ------------------------------------------------------------

// coerce adapts a value to a column's declared type, creating file-backed
// large objects from path literals for u-file/p-file typed columns (the
// paper's `picture = "/usr/joe"` idiom).
func (e *Engine) coerce(ev *env, v adt.Value, colType string) (adt.Value, error) {
	switch strings.ToLower(colType) {
	case "int4":
		if v.Kind == adt.KindInt {
			return v, nil
		}
	case "text":
		if v.Kind == adt.KindText {
			return v, nil
		}
	case "bool":
		if v.Kind == adt.KindBool {
			return v, nil
		}
	case "rect":
		if v.Kind == adt.KindRect {
			return v, nil
		}
		if v.Kind == adt.KindText {
			r, err := adt.ParseRect(v.Str)
			if err == nil {
				return adt.RectVal(r), nil
			}
		}
	case "large-object":
		if v.Kind == adt.KindObject {
			return v, nil
		}
	default:
		t, err := e.store.Registry().LargeTypeByName(colType)
		if err != nil {
			return adt.Null(), fmt.Errorf("query: unknown column type %q", colType)
		}
		if v.Kind == adt.KindObject {
			if v.Obj.TypeName != "" && v.Obj.TypeName != t.Name {
				return adt.Null(), fmt.Errorf("%w: object of type %q into %q column", ErrTypeMismatch, v.Obj.TypeName, t.Name)
			}
			v.Obj.TypeName = t.Name
			return v, nil
		}
		// Path literal into a file-backed large type.
		if v.Kind == adt.KindText && (t.Kind == adt.KindUFile || t.Kind == adt.KindPFile) {
			ref, obj, err := e.store.Create(ev.tx, core.CreateOptions{
				TypeName: t.Name, Path: v.Str,
			})
			if err != nil {
				return adt.Null(), err
			}
			if err := obj.Close(); err != nil {
				return adt.Null(), err
			}
			return adt.Object(ref), nil
		}
	}
	return adt.Null(), fmt.Errorf("%w: %v value into %s column", ErrTypeMismatch, v.Kind, colType)
}

// keepIfTemp promotes a temporary that escapes into a class, whether it was
// created by this query's session or by an earlier one (bound variable).
func keepIfTemp(ev *env, v adt.Value) error {
	if v.Kind != adt.KindObject {
		return nil
	}
	meta, err := ev.eng.store.Catalog().Object(catalog.OID(v.Obj.OID))
	if err != nil {
		return err
	}
	if meta.Temp {
		return ev.eng.store.Promote(v.Obj)
	}
	return nil
}

func (e *Engine) openClass(name string) (*catalog.Class, *heap.Relation, error) {
	cls, err := e.store.Catalog().Class(name)
	if err != nil {
		return nil, nil, err
	}
	rel, err := heap.Open(e.store.Pool(), cls.SM, cls.Rel)
	if err != nil {
		return nil, nil, err
	}
	return cls, rel, nil
}

// buildRow evaluates assignments into a schema-ordered row.
func (e *Engine) buildRow(ev *env, cls *catalog.Class, assigns []assign, base []adt.Value) ([]adt.Value, error) {
	row := make([]adt.Value, len(cls.Columns))
	if base != nil {
		copy(row, base)
	} else {
		for i := range row {
			row[i] = adt.Null()
		}
	}
	for _, a := range assigns {
		i := cls.ColumnIndex(a.col)
		if i < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrUnknownCol, cls.Name, a.col)
		}
		v, err := ev.eval(a.expr)
		if err != nil {
			return nil, err
		}
		if v, err = e.coerce(ev, v, cls.Columns[i].Type); err != nil {
			return nil, err
		}
		if err := keepIfTemp(ev, v); err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

func (e *Engine) execAppend(tx *txn.Txn, st *appendStmt) (*Result, error) {
	cls, rel, err := e.openClass(st.class)
	if err != nil {
		return nil, err
	}
	session := e.store.NewSession(tx)
	ev := &env{eng: e, tx: tx, session: session}
	row, err := e.buildRow(ev, cls, st.assigns, nil)
	if err != nil {
		session.Close()
		return nil, err
	}
	tid, err := rel.Insert(tx, adt.EncodeRow(row))
	if err != nil {
		session.Close()
		return nil, err
	}
	if err := e.maintainIndexes(ev, cls, row, tid); err != nil {
		session.Close()
		return nil, err
	}
	if err := session.Close(); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// matchRow evaluates a qualification in the row's scope.
func (e *Engine) matchRow(ev *env, qual expr) (bool, error) {
	if qual == nil {
		return true, nil
	}
	v, err := ev.eval(qual)
	if err != nil {
		return false, err
	}
	if v.Kind != adt.KindBool {
		return false, ErrNotBool
	}
	return v.Bool, nil
}

func (e *Engine) execRetrieve(tx *txn.Txn, st *retrieveStmt) (*Result, error) {
	// Which class does the query range over?
	refs := map[string]bool{}
	for _, t := range st.targets {
		classRefs(t.expr, refs)
	}
	classRefs(st.qual, refs)

	session := e.store.NewSession(tx)
	res := &Result{session: session}
	for i, t := range st.targets {
		res.Columns = append(res.Columns, targetName(t, i))
	}
	ev := &env{eng: e, tx: tx, session: session}

	// count(...) targets aggregate matching rows instead of emitting them.
	counting, err := retrieveIsCount(st)
	if err != nil {
		session.Close()
		return nil, err
	}
	var matched int64

	emit := func() error {
		if counting {
			matched++
			return nil
		}
		row := make([]adt.Value, len(st.targets))
		for i, t := range st.targets {
			v, err := ev.eval(t.expr)
			if err != nil {
				return err
			}
			row[i] = v
		}
		res.Rows = append(res.Rows, row)
		return nil
	}
	finish := func() (*Result, error) {
		if counting {
			res.Rows = [][]adt.Value{{adt.Int(matched)}}
		}
		if st.sortBy != "" {
			if err := sortRows(res, st.sortBy, st.sortDesc); err != nil {
				session.Close()
				return nil, err
			}
		}
		if st.into != "" {
			if err := e.materialize(ev, st.into, res); err != nil {
				session.Close()
				return nil, err
			}
		}
		e.autoBind(st, res)
		return res, nil
	}

	if len(refs) == 0 {
		// Pure expression query: one row.
		if err := emit(); err != nil {
			session.Close()
			return nil, err
		}
		return finish()
	}

	// Open every referenced class (a multi-class retrieve is a nested-loop
	// join, as in POSTQUEL) and validate column references up front so
	// typos surface even over empty classes.
	type scanSrc struct {
		entry *scopeEntry
		rel   *heap.Relation
	}
	var srcs []scanSrc
	names := make([]string, 0, len(refs))
	for n := range refs {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic loop order
	for _, name := range names {
		cls, rel, err := e.openClass(name)
		if err != nil {
			session.Close()
			return nil, err
		}
		for _, t := range st.targets {
			if err := validateCols(cls, t.expr); err != nil {
				session.Close()
				return nil, err
			}
		}
		if err := validateCols(cls, st.qual); err != nil {
			session.Close()
			return nil, err
		}
		srcs = append(srcs, scanSrc{entry: ev.bindClass(cls), rel: rel})
	}

	// Single-class fast path: probe a matching index (including function
	// indexes, §3) instead of scanning.
	if len(srcs) == 1 && st.asOf == 0 {
		probe, err := e.findIndexProbe(ev, srcs[0].entry.cls, st.qual)
		if err != nil {
			session.Close()
			return nil, err
		}
		if probe != nil {
			if err := e.indexScan(ev, srcs[0].entry, srcs[0].rel, probe, st.qual, emit); err != nil {
				session.Close()
				return nil, err
			}
			res.UsedIndex = probe.def.Name
			return finish()
		}
	}

	// Nested-loop evaluation over all sources, current or historical.
	var loop func(i int) error
	loop = func(i int) error {
		if i == len(srcs) {
			ok, err := e.matchRow(ev, st.qual)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			return emit()
		}
		src := srcs[i]
		body := func(tid heap.TID, data []byte) (bool, error) {
			row, err := adt.DecodeRow(data)
			if err != nil {
				return false, err
			}
			src.entry.row = row
			if err := loop(i + 1); err != nil {
				return false, err
			}
			return true, nil
		}
		if st.asOf != 0 {
			return src.rel.ScanAsOf(txn.TS(st.asOf), body)
		}
		return src.rel.Scan(tx, body)
	}
	if err := loop(0); err != nil {
		session.Close()
		return nil, err
	}
	return finish()
}

// sortRows orders result rows by the named result column (POSTQUEL's
// "sort by").
func sortRows(res *Result, col string, desc bool) error {
	idx := -1
	for i, c := range res.Columns {
		if strings.EqualFold(c, col) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("%w: sort by %s (not a result column)", ErrUnknownCol, col)
	}
	var sortErr error
	sort.SliceStable(res.Rows, func(i, j int) bool {
		c, err := adt.Compare(res.Rows[i][idx], res.Rows[j][idx])
		if err != nil && sortErr == nil {
			sortErr = err
		}
		if desc {
			return c > 0
		}
		return c < 0
	})
	return sortErr
}

// materialize creates a class named into from the result's columns and
// rows — POSTQUEL's "retrieve into". Column types are inferred from the
// first non-null value in each column; object values escape temp GC.
func (e *Engine) materialize(ev *env, into string, res *Result) error {
	cols := make([]catalog.Column, len(res.Columns))
	for i, name := range res.Columns {
		typ := "text"
		for _, row := range res.Rows {
			if t, ok := typeNameFor(row[i].Kind); ok {
				typ = t
				break
			}
		}
		cols[i] = catalog.Column{Name: name, Type: typ}
	}
	cls, err := e.store.Catalog().CreateClass(into, e.store.DefaultSM(), cols)
	if err != nil {
		return err
	}
	rel, err := heap.Create(e.store.Pool(), cls.SM, cls.Rel)
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		for _, v := range row {
			if err := keepIfTemp(ev, v); err != nil {
				return err
			}
		}
		if _, err := rel.Insert(ev.tx, adt.EncodeRow(row)); err != nil {
			return err
		}
	}
	return nil
}

func typeNameFor(k adt.ValueKind) (string, bool) {
	switch k {
	case adt.KindInt:
		return "int4", true
	case adt.KindText:
		return "text", true
	case adt.KindBool:
		return "bool", true
	case adt.KindRect:
		return "rect", true
	case adt.KindObject:
		return "large-object", true
	default:
		return "", false
	}
}

// retrieveIsCount reports whether the retrieve is an aggregation: a single
// count(<expr>) target, POSTQUEL style. Mixing count with row targets is an
// error.
func retrieveIsCount(st *retrieveStmt) (bool, error) {
	counts := 0
	for _, t := range st.targets {
		if c, ok := t.expr.(*callExpr); ok && strings.EqualFold(c.fn, "count") {
			counts++
		}
	}
	if counts == 0 {
		return false, nil
	}
	if counts != len(st.targets) || len(st.targets) != 1 {
		return false, fmt.Errorf("%w: count() must be the only target", ErrSyntax)
	}
	return true, nil
}

// autoBind makes single-row aliased targets available as free variables in
// later statements, enabling the paper's newfilename() idiom.
func (e *Engine) autoBind(st *retrieveStmt, res *Result) {
	if len(res.Rows) != 1 {
		return
	}
	for i, t := range st.targets {
		if t.alias != "" {
			e.Let(t.alias, res.Rows[0][i])
		}
	}
}

func targetName(t target, i int) string {
	if t.alias != "" {
		return t.alias
	}
	if c, ok := t.expr.(*colRef); ok && c.class != "" {
		return c.col
	}
	if c, ok := t.expr.(*callExpr); ok {
		return c.fn
	}
	return fmt.Sprintf("column%d", i+1)
}

func (e *Engine) execDelete(tx *txn.Txn, st *deleteStmt) (*Result, error) {
	cls, rel, err := e.openClass(st.class)
	if err != nil {
		return nil, err
	}
	session := e.store.NewSession(tx)
	defer session.Close()
	ev := &env{eng: e, tx: tx, session: session}
	entry := ev.bindClass(cls)
	var victims []heap.TID
	err = rel.Scan(tx, func(tid heap.TID, data []byte) (bool, error) {
		row, err := adt.DecodeRow(data)
		if err != nil {
			return false, err
		}
		entry.row = row
		ok, err := e.matchRow(ev, st.qual)
		if err != nil {
			return false, err
		}
		if ok {
			victims = append(victims, tid)
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	for _, tid := range victims {
		if err := rel.Delete(tx, tid); err != nil {
			return nil, err
		}
	}
	return &Result{Rows: [][]adt.Value{{adt.Int(int64(len(victims)))}}, Columns: []string{"deleted"}}, nil
}

func (e *Engine) execReplace(tx *txn.Txn, st *replaceStmt) (*Result, error) {
	cls, rel, err := e.openClass(st.class)
	if err != nil {
		return nil, err
	}
	session := e.store.NewSession(tx)
	ev := &env{eng: e, tx: tx, session: session}
	entry := ev.bindClass(cls)
	type match struct {
		tid heap.TID
		row []adt.Value
	}
	var matches []match
	err = rel.Scan(tx, func(tid heap.TID, data []byte) (bool, error) {
		row, err := adt.DecodeRow(data)
		if err != nil {
			return false, err
		}
		entry.row = row
		ok, err := e.matchRow(ev, st.qual)
		if err != nil {
			return false, err
		}
		if ok {
			matches = append(matches, match{tid, append([]adt.Value(nil), row...)})
		}
		return true, nil
	})
	if err != nil {
		session.Close()
		return nil, err
	}
	for _, m := range matches {
		entry.row = m.row
		newRow, err := e.buildRow(ev, cls, st.assigns, m.row)
		if err != nil {
			session.Close()
			return nil, err
		}
		newTID, err := rel.Replace(tx, m.tid, adt.EncodeRow(newRow))
		if err != nil {
			session.Close()
			return nil, err
		}
		if err := e.maintainIndexes(ev, cls, newRow, newTID); err != nil {
			session.Close()
			return nil, err
		}
	}
	if err := session.Close(); err != nil {
		return nil, err
	}
	return &Result{Rows: [][]adt.Value{{adt.Int(int64(len(matches)))}}, Columns: []string{"replaced"}}, nil
}

// --- built-in functions -----------------------------------------------------------

// registerBuiltins installs the built-in functions into the store's ADT
// registry. It panics if a definition is rejected: the set is compiled into
// the binary, so a failure is a programming error no caller can handle.
func (e *Engine) registerBuiltins() {
	reg := e.store.Registry()
	define := func(f adt.Func) {
		if _, err := reg.Function(f.Name); err == nil {
			return // already present (engine re-created over same registry)
		}
		if err := reg.DefineFunction(f); err != nil {
			panic(err) // registration of built-ins cannot fail
		}
	}
	define(adt.Func{
		Name: "newfilename", Arity: 0,
		Impl: func(ctx *adt.CallContext, args []adt.Value) (adt.Value, error) {
			path, err := e.store.NewFilename()
			if err != nil {
				return adt.Null(), err
			}
			return adt.Text(path), nil
		},
	})
	define(adt.Func{
		Name: "newlobj", Arity: 1, ArgKinds: []adt.ValueKind{adt.KindText},
		Impl: func(ctx *adt.CallContext, args []adt.Value) (adt.Value, error) {
			if ctx.Store == nil {
				return adt.Null(), errors.New("query: newlobj needs a session")
			}
			ref, obj, err := ctx.Store.CreateTemp(args[0].Str)
			if err != nil {
				return adt.Null(), err
			}
			if err := obj.Close(); err != nil {
				return adt.Null(), err
			}
			return adt.Object(ref), nil
		},
	})
	define(adt.Func{
		Name: "lobj_size", Arity: 1, ArgKinds: []adt.ValueKind{adt.KindObject},
		Impl: func(ctx *adt.CallContext, args []adt.Value) (adt.Value, error) {
			obj, err := ctx.Store.OpenObject(args[0].Obj)
			if err != nil {
				return adt.Null(), err
			}
			defer obj.Close()
			n, err := obj.Size()
			if err != nil {
				return adt.Null(), err
			}
			return adt.Int(n), nil
		},
	})
	define(adt.Func{
		Name: "lobj_read", Arity: 3,
		ArgKinds: []adt.ValueKind{adt.KindObject, adt.KindInt, adt.KindInt},
		Impl: func(ctx *adt.CallContext, args []adt.Value) (adt.Value, error) {
			obj, err := ctx.Store.OpenObject(args[0].Obj)
			if err != nil {
				return adt.Null(), err
			}
			defer obj.Close()
			// The length comes from the query text: refuse a negative one
			// and allocate no more than the object holds past the offset.
			off, want := args[1].Int, args[2].Int
			if want < 0 {
				return adt.Null(), fmt.Errorf("query: lobj_read: negative length %d", want)
			}
			size, err := obj.Size()
			if err != nil {
				return adt.Null(), err
			}
			if _, err := obj.Seek(off, io.SeekStart); err != nil {
				return adt.Null(), err
			}
			buf := make([]byte, max(0, min(want, size-off)))
			n, err := io.ReadFull(obj, buf)
			if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
				return adt.Null(), err
			}
			return adt.Text(string(buf[:n])), nil
		},
	})
	define(adt.Func{
		Name: "lobj_write", Arity: 3,
		ArgKinds: []adt.ValueKind{adt.KindObject, adt.KindInt, adt.KindText},
		Impl: func(ctx *adt.CallContext, args []adt.Value) (adt.Value, error) {
			obj, err := ctx.Store.OpenObject(args[0].Obj)
			if err != nil {
				return adt.Null(), err
			}
			defer obj.Close()
			if _, err := obj.Seek(args[1].Int, io.SeekStart); err != nil {
				return adt.Null(), err
			}
			n, err := obj.Write([]byte(args[2].Str))
			if err != nil {
				return adt.Null(), err
			}
			return adt.Int(int64(n)), nil
		},
	})
}
