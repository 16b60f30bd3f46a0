// Package txn implements the transaction machinery the no-overwrite storage
// system needs: transaction identifiers, a commit log recording the state of
// every transaction (the analogue of POSTGRES' pg_log), snapshots for
// visibility checks, and commit timestamps, which are what make time travel
// possible — a historical query "as of T" sees exactly the tuples whose
// inserting transaction committed at or before T and whose deleting
// transaction (if any) committed after T.
//
// Visibility lookups (Status, CommitTS, Now) are lock-free: outcomes live in
// a paged table of atomic words, so a snapshot reader walking version chains
// never touches the manager's mutex. Only Begin and transaction completion
// take the lock.
package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"postlob/internal/obs"
)

// Transaction metrics, registered once at package init. For a workload that
// finishes every transaction it starts, begins == commits + aborts — a
// conservation law the soak and crash harnesses assert (crashed transactions
// are the deliberate exception: they begin and never finish).
var (
	obsBegins  = obs.NewCounter("txn.begins")
	obsCommits = obs.NewCounter("txn.commits")
	obsAborts  = obs.NewCounter("txn.aborts")
	obsTxnDur  = obs.NewTimer("txn.duration")
)

// XID identifies a transaction.
type XID uint32

const (
	// InvalidXID marks "no transaction", e.g. a tuple that was never deleted.
	InvalidXID XID = 0
	// BootstrapXID is a permanently committed transaction used for data
	// created outside any user transaction (catalog bootstrap).
	BootstrapXID XID = 1
	firstUserXID XID = 2
)

// Status is a transaction's state in the commit log.
type Status uint8

// Transaction states.
const (
	InProgress Status = iota
	Committed
	Aborted
)

func (s Status) String() string {
	switch s {
	case InProgress:
		return "in progress"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// TS is a commit timestamp: a monotonically increasing logical time assigned
// when a transaction commits. Time-travel queries name a TS.
type TS int64

// InvalidTS is earlier than every commit.
const InvalidTS TS = 0

// Errors returned by the manager.
var (
	ErrDone     = errors.New("txn: transaction already finished")
	ErrUnknown  = errors.New("txn: unknown transaction")
	ErrCorrupt  = errors.New("txn: corrupt log file")
	ErrInClosed = errors.New("txn: manager closed")
)

// Snapshot captures what a reader is allowed to see. A live snapshot (from
// Txn.Snapshot) observes everything committed before Xmax that was not still
// running; a historical snapshot (from SnapshotAt) observes exactly the
// transactions committed at or before AsOf. The two kinds flow through the
// same read path — time travel is just visibility with an older snapshot.
type Snapshot struct {
	// Self is the observing transaction (live snapshots only).
	Self XID
	// Xmax: transactions with ID >= Xmax had not started.
	Xmax XID
	// Active lists transactions that were in progress, sorted ascending.
	Active []XID
	// AsOf is the read timestamp of a historical snapshot; meaningful only
	// when Historical reports true.
	AsOf TS

	historical bool
}

// SnapshotAt returns a historical snapshot observing exactly the
// transactions committed at or before ts.
func SnapshotAt(ts TS) Snapshot {
	return Snapshot{AsOf: ts, historical: true}
}

// Historical reports whether the snapshot reads as of a fixed commit
// timestamp rather than a live transaction's view.
func (s Snapshot) Historical() bool { return s.historical }

// Sees reports whether a live snapshot observes the effects of x. For
// historical snapshots visibility is decided by commit timestamps instead
// (see heap's visibility check); Sees is meaningful only for live snapshots.
func (s Snapshot) Sees(x XID) bool {
	if x == s.Self || x == BootstrapXID {
		return true
	}
	if x == InvalidXID || x >= s.Xmax {
		return false
	}
	i := sort.Search(len(s.Active), func(i int) bool { return s.Active[i] >= x })
	return !(i < len(s.Active) && s.Active[i] == x)
}

// Xmin returns the snapshot's horizon: the smallest XID whose outcome the
// snapshot might still care about. Every transaction below it is either
// visible or permanently invisible to this snapshot.
func (s Snapshot) Xmin() XID {
	if s.historical {
		return InvalidXID // a historical snapshot pins all committed history
	}
	if len(s.Active) > 0 {
		return s.Active[0]
	}
	return s.Self
}

// DurabilityLog couples transaction completion to a write-ahead log. The
// manager calls it at the commit and abort boundaries; postlob's WAL
// durability mode supplies an implementation backed by internal/wal, while a
// nil log preserves the paper's force/checkpoint disciplines.
type DurabilityLog interface {
	// LogWork captures the transaction's unlogged dirty pages as redo
	// records. Called before the commit becomes visible, with no manager
	// lock held; an error aborts the commit.
	LogWork(x XID) error
	// LogCommit appends the transaction's commit record and returns its
	// LSN. Called under the manager's exclusive lock, so log order always
	// matches visibility order: no transaction that observed x committed
	// can obtain an earlier commit LSN. An error aborts the commit before
	// it becomes visible.
	LogCommit(x XID, ts TS) (lsn uint64, err error)
	// LogAbort appends an abort record. Purely an optimisation — recovery
	// treats transactions with no commit record as aborted — so it returns
	// nothing and must not block on durability.
	LogAbort(x XID)
	// WaitDurable blocks until the log is durable through lsn — the group-
	// commit park. Called with no locks held.
	WaitDurable(lsn uint64) error
}

// --- lock-free outcome table -------------------------------------------------

// Transaction outcomes are packed into one atomic word per XID so visibility
// checks never block behind Begin or a committing transaction:
//
//	bits 0..1  outcome (0 unknown, 1 committed, 2 aborted, 3 in progress)
//	bits 2..63 commit timestamp, when committed
//
// "Unknown" doubles as "crashed before logging anything", which recovery
// treats as aborted. Words are only written under the manager's exclusive
// lock — the atomic store is the commit's linearisation point — and read
// with plain atomic loads anywhere.
const (
	stUnknown    = 0
	stCommitted  = 1
	stAborted    = 2
	stInProgress = 3

	statusPageBits = 10
	statusPageSize = 1 << statusPageBits
)

type statusPage [statusPageSize]atomic.Uint64

// statusTable is a grow-only paged array indexed by XID. The page directory
// is replaced copy-on-write under the manager's lock; readers load it
// atomically, so growth never invalidates a concurrent lookup.
type statusTable struct {
	dir atomic.Pointer[[]*statusPage]
}

func packCommitted(ts TS) uint64 { return stCommitted | uint64(ts)<<2 }

func (t *statusTable) load(x XID) uint64 {
	dir := t.dir.Load()
	if dir == nil {
		return stUnknown
	}
	pi := int(x >> statusPageBits)
	if pi >= len(*dir) {
		return stUnknown
	}
	return (*dir)[pi][int(x)&(statusPageSize-1)].Load()
}

// growLocked ensures the page holding x exists; caller holds m.mu exclusive.
func (t *statusTable) growLocked(x XID) {
	want := int(x>>statusPageBits) + 1
	old := t.dir.Load()
	n := 0
	if old != nil {
		n = len(*old)
	}
	if want <= n {
		return
	}
	next := make([]*statusPage, want)
	if old != nil {
		copy(next, *old)
	}
	for i := n; i < want; i++ {
		next[i] = new(statusPage)
	}
	t.dir.Store(&next)
}

// setLocked records x's outcome; caller holds m.mu exclusive and has grown
// the table past x.
func (t *statusTable) setLocked(x XID, word uint64) {
	dir := t.dir.Load()
	(*dir)[int(x>>statusPageBits)][int(x)&(statusPageSize-1)].Store(word)
}

// Manager hands out transactions and records their outcomes. The outcome
// table is read on every tuple-visibility check, so lookups (Status,
// CommitTS, Now) are lock-free; Begin and transaction completion take the
// lock exclusive.
type Manager struct {
	mu       sync.RWMutex
	nextXID  XID           // guarded by mu
	active   map[XID]bool  // guarded by mu
	snapXmin map[XID]XID   // guarded by mu; each live txn's snapshot horizon
	logPath  string        // guarded by mu; "" disables durable XID reservation
	xidBound XID           // guarded by mu; XIDs below this are durably reserved
	dlog     DurabilityLog // guarded by mu; nil outside WAL mode

	// nextTS is the next commit timestamp. Written only under mu; read
	// atomically by Now with no lock.
	nextTS atomic.Int64

	// aborts counts transactions that ended aborted, each counted after its
	// outcome is in the table (see AbortCount).
	aborts atomic.Uint64

	// table holds every transaction's packed outcome word, lock-free to read.
	table statusTable

	// saveMu serialises commit-log file writes (the temp file name is
	// shared, and renames must not reorder). Acquired after mu; writers
	// always hold mu — shared or exclusive — across the write, so two
	// serialised writes always carry identical snapshots.
	saveMu sync.Mutex
}

// NewManager returns an empty transaction manager.
func NewManager() *Manager {
	m := &Manager{
		nextXID:  firstUserXID,
		active:   make(map[XID]bool),
		snapXmin: make(map[XID]XID),
	}
	m.nextTS.Store(1)
	return m
}

// SetLogPath names the commit-log file used for durable XID reservation.
// A manager with a log path never hands out an XID that was not first
// reserved on disk: recovery from a crash then restarts numbering above
// every XID a lost transaction might have stamped into synced tuples.
// Without the reservation a recycled XID would commit and make the lost
// transaction's stray tuples spring back to life.
func (m *Manager) SetLogPath(path string) {
	m.mu.Lock()
	m.logPath = path
	m.mu.Unlock()
}

// SetDurabilityLog attaches a write-ahead log to the manager. Call before
// the manager is shared: from then on Commit appends a commit record and
// waits for a group flush instead of relying on checkpoints, and Abort
// appends a lazy abort record.
func (m *Manager) SetDurabilityLog(d DurabilityLog) {
	m.mu.Lock()
	m.dlog = d
	m.mu.Unlock()
}

func (m *Manager) durabilityLog() DurabilityLog {
	m.mu.RLock()
	d := m.dlog
	m.mu.RUnlock()
	return d
}

// xidBatch is how many XIDs one durable reservation covers, so Begin
// rewrites the log only once per batch rather than on every transaction.
const xidBatch = 128

// Begin starts a transaction with a fresh snapshot.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.logPath != "" && m.nextXID >= m.xidBound {
		bound := m.nextXID + xidBatch
		buf := m.encodeLocked(bound)
		m.saveMu.Lock()
		err := writeLogFile(m.logPath, buf)
		m.saveMu.Unlock()
		if err == nil {
			m.xidBound = bound
		}
		// On failure the bound stays put and the next Begin retries; the
		// commit-time Save will surface persistent log trouble loudly.
	}
	id := m.nextXID
	m.nextXID++
	m.table.growLocked(id)
	m.table.setLocked(id, stInProgress)
	active := make([]XID, 0, len(m.active))
	for x := range m.active {
		active = append(active, x)
	}
	sort.Slice(active, func(i, j int) bool { return active[i] < active[j] })
	m.active[id] = true
	snap := Snapshot{
		Self:   id,
		Xmax:   id, // everything from us onward is invisible (except Self)
		Active: active,
	}
	m.snapXmin[id] = snap.Xmin()
	obsBegins.Inc()
	return &Txn{
		mgr:  m,
		id:   id,
		sw:   obsTxnDur.Start(),
		snap: snap,
	}
}

// GlobalXmin returns the oldest XID any live snapshot might still need to
// resolve: the minimum of every active transaction's snapshot horizon, or
// the next XID to be issued when nothing is running. A dead tuple version
// whose deleter committed below this horizon is invisible to every current
// and future snapshot, so vacuum may reclaim it.
func (m *Manager) GlobalXmin() XID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	h := m.nextXID
	for _, x := range m.snapXmin {
		if x < h {
			h = x
		}
	}
	return h
}

// AbortCount returns how many transactions have ended aborted. Vacuum keeps
// the value it read before a full walk: while the count stands, no
// transaction has aborted since, so no new aborted-insert debris exists. An
// abort is counted only after Status reports it, so a walk that starts at a
// given count already sees every abort the count includes. Lock-free.
func (m *Manager) AbortCount() uint64 { return m.aborts.Load() }

// Counters returns the next XID to be issued and the timestamp of the most
// recent commit — the version metadata a WAL checkpoint records so recovery
// can restart numbering past everything the lost epoch might have stamped.
func (m *Manager) Counters() (next XID, now TS) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.nextXID, TS(m.nextTS.Load() - 1)
}

// Status returns the commit-log state of x. The bootstrap transaction is
// always committed; unknown IDs are reported aborted (a crashed transaction
// never reached the log). Lock-free.
func (m *Manager) Status(x XID) Status {
	if x == BootstrapXID {
		return Committed
	}
	switch m.table.load(x) & 3 {
	case stCommitted:
		return Committed
	case stInProgress:
		return InProgress
	default: // stAborted or stUnknown
		return Aborted
	}
}

// CommitTS returns the commit timestamp of x, if committed. Lock-free.
func (m *Manager) CommitTS(x XID) (TS, bool) {
	if x == BootstrapXID {
		return InvalidTS, true // committed before all time
	}
	w := m.table.load(x)
	if w&3 != stCommitted {
		return InvalidTS, false
	}
	return TS(w >> 2), true
}

// Now returns the timestamp of the most recent commit; reading "as of Now"
// sees every transaction committed so far and nothing that commits later.
// Lock-free.
func (m *Manager) Now() TS {
	return TS(m.nextTS.Load() - 1)
}

func (m *Manager) finish(x XID, st Status) TS {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.active, x)
	delete(m.snapXmin, x)
	m.table.growLocked(x)
	if st != Committed {
		m.table.setLocked(x, stAborted)
		m.aborts.Add(1)
		return InvalidTS
	}
	ts := TS(m.nextTS.Load())
	m.table.setLocked(x, packCommitted(ts))
	m.nextTS.Store(int64(ts) + 1)
	return ts
}

// forget ends a transaction that never stamped a tuple. No tuple carries x,
// so no visibility check can ever ask for its outcome: the slot goes back to
// unknown instead of taking a commit-log entry, the timestamp counter stays
// put, and the abort count — vacuum's cue that aborted debris may exist —
// does not move.
func (m *Manager) forget(x XID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.active, x)
	delete(m.snapXmin, x)
	m.table.setLocked(x, stUnknown)
}

// finishCommit makes x committed, appending its commit record (when a
// durability log is attached) inside the same critical section that makes
// the commit visible. That pairing is the WAL ordering contract: if T2's
// snapshot saw T1 committed, T1's commit record precedes T2's in the log,
// so recovery can never surface T2 without T1. On a log failure the
// transaction becomes aborted instead and never turns visible.
//
// The atomic outcome store is the commit's linearisation point; the
// timestamp counter advances only afterwards, so a reader that obtained
// ts from Now is guaranteed to resolve every commit at or before ts.
func (m *Manager) finishCommit(x XID) (TS, uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := TS(m.nextTS.Load())
	var lsn uint64
	if m.dlog != nil {
		var err error
		if lsn, err = m.dlog.LogCommit(x, ts); err != nil {
			m.table.growLocked(x)
			m.table.setLocked(x, stAborted)
			m.aborts.Add(1)
			delete(m.active, x)
			delete(m.snapXmin, x)
			return InvalidTS, 0, err
		}
	}
	m.table.growLocked(x)
	m.table.setLocked(x, packCommitted(ts))
	m.nextTS.Store(int64(ts) + 1)
	delete(m.active, x)
	delete(m.snapXmin, x)
	return ts, lsn, nil
}

// ApplyRecoveredCommit installs a commit found in the write-ahead log during
// redo recovery: the transaction becomes committed at ts, and the XID and
// timestamp counters advance past it so neither is ever reissued.
func (m *Manager) ApplyRecoveredCommit(x XID, ts TS) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.table.growLocked(x)
	m.table.setLocked(x, packCommitted(ts))
	delete(m.active, x)
	delete(m.snapXmin, x)
	if int64(ts) >= m.nextTS.Load() {
		m.nextTS.Store(int64(ts) + 1)
	}
	if x >= m.nextXID {
		m.nextXID = x + 1
	}
}

// ApplyRecoveredAbort installs an abort found in the write-ahead log during
// redo recovery. Unknown XIDs are implicitly aborted anyway; recording the
// outcome just keeps Status exact and the XID counter ahead.
func (m *Manager) ApplyRecoveredAbort(x XID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.table.growLocked(x)
	if m.table.load(x)&3 != stCommitted {
		m.table.setLocked(x, stAborted)
		m.aborts.Add(1)
	}
	delete(m.active, x)
	delete(m.snapXmin, x)
	if x >= m.nextXID {
		m.nextXID = x + 1
	}
}

// ApplyRecoveredCounters advances the XID and timestamp counters to at least
// the values a WAL checkpoint recorded. Redo recovery calls this when it
// replays a checkpoint record, so version numbering stays monotonic even if
// the commit-log file lagged the write-ahead log at the crash.
func (m *Manager) ApplyRecoveredCounters(next XID, now TS) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if next > m.nextXID {
		m.nextXID = next
	}
	if int64(now)+1 > m.nextTS.Load() {
		m.nextTS.Store(int64(now) + 1)
	}
}

// Txn is a live transaction.
type Txn struct {
	mgr  *Manager
	id   XID
	snap Snapshot
	sw   obs.Stopwatch // begin-to-finish duration; written at Begin only
	done bool          // guarded by mu

	// writer is set the first time the heap stamps a tuple with this XID
	// (an insert, a delete stamp, an in-place update). A transaction that
	// finishes without it leaves no trace in the commit log or the WAL.
	writer atomic.Bool

	mu        sync.Mutex
	onCommit  []func()       // guarded by mu
	onAbort   []func()       // guarded by mu
	onDurable []func() error // guarded by mu
}

// ID returns the transaction's XID.
func (t *Txn) ID() XID { return t.id }

// Snapshot returns the visibility snapshot taken at Begin.
func (t *Txn) Snapshot() Snapshot { return t.snap }

// Manager returns the owning manager.
func (t *Txn) Manager() *Manager { return t.mgr }

// MarkWriter records that the transaction's XID is about to be stamped into
// a tuple; the heap calls it before every such stamp. Only a writer's
// outcome is recorded at Commit or Abort.
func (t *Txn) MarkWriter() { t.writer.Store(true) }

// Done reports whether the transaction has committed or aborted.
func (t *Txn) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// OnCommit registers fn to run after a successful commit; used by temporary
// large objects and other end-of-transaction cleanups.
func (t *Txn) OnCommit(fn func()) {
	t.mu.Lock()
	t.onCommit = append(t.onCommit, fn)
	t.mu.Unlock()
}

// OnAbort registers fn to run after an abort.
func (t *Txn) OnAbort(fn func()) {
	t.mu.Lock()
	t.onAbort = append(t.onAbort, fn)
	t.mu.Unlock()
}

// OnCommitDurable registers a durability hook: it runs at commit, before the
// plain OnCommit hooks, and its error is returned from Commit. Force-at-
// commit checkpointing uses this so a failed flush is reported to the caller
// instead of being swallowed.
func (t *Txn) OnCommitDurable(fn func() error) {
	t.mu.Lock()
	t.onDurable = append(t.onDurable, fn)
	t.mu.Unlock()
}

// Commit marks the transaction committed, assigning its commit timestamp.
// With a durability log attached the transaction's dirty page images and
// commit record are appended and the call waits for one group flush; a
// failure before the commit becomes visible turns the transaction into an
// abort and returns the error. After the commit is visible, a non-nil error
// reports a durability failure (group flush or OnCommitDurable hook): the
// transaction is committed in memory but may not survive a crash.
//
// A transaction that never stamped a tuple (see MarkWriter) has nothing to
// make visible or durable: it takes no commit-log entry, no timestamp, no
// log record and no flush wait, and returns Now. Its hooks still run.
func (t *Txn) Commit() (TS, error) {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return InvalidTS, ErrDone
	}
	t.done = true
	hooks := t.onCommit
	abortHooks := t.onAbort
	durable := t.onDurable
	t.onCommit, t.onAbort, t.onDurable = nil, nil, nil
	t.mu.Unlock()
	t.sw.Stop()
	var ts TS
	var firstErr error
	if t.writer.Load() {
		var err error
		if ts, firstErr, err = t.commitWrites(); err != nil {
			obsAborts.Inc()
			for _, fn := range abortHooks {
				fn()
			}
			return InvalidTS, err
		}
	} else {
		t.mgr.forget(t.id)
		ts = t.mgr.Now()
	}
	obsCommits.Inc()
	for _, fn := range durable {
		if err := fn(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, fn := range hooks {
		fn()
	}
	return ts, firstErr
}

// commitWrites records a writer's commit. err reports a failure before the
// commit became visible, after which the transaction is aborted instead;
// durErr reports a failed group flush after it became visible.
func (t *Txn) commitWrites() (ts TS, durErr, err error) {
	dlog := t.mgr.durabilityLog()
	if dlog != nil {
		// Log the work first, with no manager lock held: page images may be
		// large and their append order does not matter, only that they all
		// precede the commit record.
		if err := dlog.LogWork(t.id); err != nil {
			t.mgr.finish(t.id, Aborted)
			return InvalidTS, nil, err
		}
	}
	ts, lsn, err := t.mgr.finishCommit(t.id)
	if err != nil {
		return InvalidTS, nil, err
	}
	if dlog != nil {
		// The group-commit park: every committer that appended while one
		// fsync was in flight is satisfied by the next single fsync.
		durErr = dlog.WaitDurable(lsn)
	}
	return ts, durErr, nil
}

// Abort marks the transaction aborted; its effects become invisible. Like
// Commit, it leaves no trace for a transaction that never stamped a tuple.
func (t *Txn) Abort() error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return ErrDone
	}
	t.done = true
	hooks := t.onAbort
	t.onCommit, t.onAbort, t.onDurable = nil, nil, nil
	t.mu.Unlock()
	obsAborts.Inc()
	t.sw.Stop()
	if t.writer.Load() {
		t.mgr.finish(t.id, Aborted)
		if dlog := t.mgr.durabilityLog(); dlog != nil {
			dlog.LogAbort(t.id)
		}
	} else {
		t.mgr.forget(t.id)
	}
	for _, fn := range hooks {
		fn()
	}
	return nil
}

// --- commit log persistence -------------------------------------------------

// Log layout, version 2 ("PLG2"): a 24-byte header — magic u32, CRC-32 u32
// (over everything after itself), durable XID bound u32, next TS u64, entry
// count u32 — followed by 13-byte entries (XID u32, status u8, TS u64). The
// CRC plus a strict length check make any truncation or bit flip of the log
// fail loudly at Load rather than silently mis-reporting transaction
// outcomes; the file is still replaced atomically (write temp, rename), so a
// crash during Save leaves the previous complete log in place.
const (
	logMagic  = 0x32474C50 // "PLG2"
	logHdrLen = 24
	logEntLen = 13
)

// encodeLocked serialises the commit log with the given durable XID bound;
// caller holds m.mu (shared is enough — nothing is mutated). Every decided
// transaction below nextXID is written; in-progress and unknown XIDs are
// omitted (after a restart they are implicitly aborted, which is exactly the
// recovery semantics of a no-overwrite store with a forced log).
func (m *Manager) encodeLocked(bound XID) []byte {
	type entry struct {
		xid XID
		st  Status
		ts  TS
	}
	var entries []entry
	for x := firstUserXID; x < m.nextXID; x++ {
		w := m.table.load(x)
		switch w & 3 {
		case stCommitted:
			entries = append(entries, entry{x, Committed, TS(w >> 2)})
		case stAborted:
			entries = append(entries, entry{x, Aborted, InvalidTS})
		}
	}
	buf := make([]byte, logHdrLen, logHdrLen+len(entries)*logEntLen)
	binary.LittleEndian.PutUint32(buf[0:], logMagic)
	binary.LittleEndian.PutUint32(buf[8:], uint32(bound))
	binary.LittleEndian.PutUint64(buf[12:], uint64(m.nextTS.Load()))
	binary.LittleEndian.PutUint32(buf[20:], uint32(len(entries)))
	var scratch [logEntLen]byte
	for _, e := range entries {
		binary.LittleEndian.PutUint32(scratch[:4], uint32(e.xid))
		scratch[4] = byte(e.st)
		binary.LittleEndian.PutUint64(scratch[5:13], uint64(e.ts))
		buf = append(buf, scratch[:]...)
	}
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[8:]))
	return buf
}

func writeLogFile(path string, buf []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("txn: save: %w", err)
	}
	return os.Rename(tmp, path)
}

// Save writes the commit log and counters to path. In-progress transactions
// are not persisted: after a restart they are implicitly aborted, which is
// exactly the recovery semantics of a no-overwrite store with a forced log.
func (m *Manager) Save(path string) error {
	// Hold the read lock across the write: concurrent Saves then encode
	// an identical snapshot (any state change needs mu exclusively), so
	// saveMu may flush them in either order without the log regressing.
	m.mu.RLock()
	defer m.mu.RUnlock()
	bound := m.xidBound
	if m.nextXID > bound {
		bound = m.nextXID
	}
	buf := m.encodeLocked(bound)
	m.saveMu.Lock()
	defer m.saveMu.Unlock()
	return writeLogFile(path, buf)
}

// logEntry is one decoded commit-log entry.
type logEntry struct {
	xid XID
	st  Status
	ts  TS
}

// decodeLog validates and parses an encoded commit log (the Save /
// EncodeState format). Any mismatch — bad magic, bad checksum, wrong
// length — returns ErrCorrupt; a corrupt log must never be trusted to
// answer visibility questions.
func decodeLog(data []byte) (bound XID, nextTS TS, ents []logEntry, err error) {
	if len(data) < logHdrLen || binary.LittleEndian.Uint32(data[0:]) != logMagic {
		return 0, 0, nil, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(data[4:]) != crc32.ChecksumIEEE(data[8:]) {
		return 0, 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	bound = XID(binary.LittleEndian.Uint32(data[8:]))
	nextTS = TS(binary.LittleEndian.Uint64(data[12:]))
	n := int(binary.LittleEndian.Uint32(data[20:]))
	if n < 0 || len(data) != logHdrLen+logEntLen*n {
		return 0, 0, nil, fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	ents = make([]logEntry, 0, n)
	for i := 0; i < n; i++ {
		rec := data[logHdrLen+logEntLen*i:]
		e := logEntry{
			xid: XID(binary.LittleEndian.Uint32(rec)),
			st:  Status(rec[4]),
			ts:  TS(binary.LittleEndian.Uint64(rec[5:])),
		}
		if e.st != Committed && e.st != Aborted {
			return 0, 0, nil, fmt.Errorf("%w: bad status %d", ErrCorrupt, e.st)
		}
		ents = append(ents, e)
	}
	return bound, nextTS, ents, nil
}

// Load restores a commit log previously written by Save.
func Load(path string) (*Manager, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("txn: load: %w", err)
	}
	bound, nextTS, ents, err := decodeLog(data)
	if err != nil {
		return nil, err
	}
	m := NewManager()
	if bound > m.nextXID {
		m.nextXID = bound
	}
	m.xidBound = m.nextXID
	if int64(nextTS) > m.nextTS.Load() {
		m.nextTS.Store(int64(nextTS))
	}
	m.table.growLocked(m.nextXID)
	for _, e := range ents {
		m.table.growLocked(e.xid)
		if e.st == Committed {
			m.table.setLocked(e.xid, packCommitted(e.ts))
		} else {
			m.table.setLocked(e.xid, stAborted)
		}
	}
	return m, nil
}

// EncodeState snapshots the manager's decided outcomes and counters in the
// commit-log wire format — what Save writes, without touching the disk. The
// replication base backup ships it so a fresh replica learns every outcome
// whose write-ahead records have already been truncated.
func (m *Manager) EncodeState() []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	bound := m.xidBound
	if m.nextXID > bound {
		bound = m.nextXID
	}
	return m.encodeLocked(bound)
}

// ApplyState merges a snapshot produced by EncodeState (or read from a
// pg_log file) into this manager: decided outcomes are installed — a
// commit always wins over a locally-unknown or aborted state, matching
// ApplyRecoveredCommit — and the XID and timestamp counters advance to at
// least the snapshot's. Outcomes this manager already knows and the
// snapshot does not are kept; on a replica both sides descend from the
// same primary history, so the merge is a union, never a conflict.
func (m *Manager) ApplyState(data []byte) error {
	bound, nextTS, ents, err := decodeLog(data)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range ents {
		m.table.growLocked(e.xid)
		if e.st == Committed {
			m.table.setLocked(e.xid, packCommitted(e.ts))
		} else if m.table.load(e.xid)&3 != stCommitted {
			m.table.setLocked(e.xid, stAborted)
			m.aborts.Add(1)
		}
		if e.xid >= m.nextXID {
			m.nextXID = e.xid + 1
		}
	}
	if bound > m.nextXID {
		m.nextXID = bound
	}
	if bound > m.xidBound {
		m.xidBound = bound
	}
	if int64(nextTS) > m.nextTS.Load() {
		m.nextTS.Store(int64(nextTS))
	}
	return nil
}

// RunInTxn executes fn inside a fresh transaction, committing on success and
// aborting on error or panic.
func RunInTxn(m *Manager, fn func(*Txn) error) error {
	t := m.Begin()
	defer func() {
		if !t.Done() {
			t.Abort()
		}
	}()
	if err := fn(t); err != nil {
		t.Abort()
		return err
	}
	_, err := t.Commit()
	return err
}
