package txn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestBeginCommitStatus(t *testing.T) {
	m := NewManager()
	tx := beginWriter(m)
	if got := m.Status(tx.ID()); got != InProgress {
		t.Fatalf("status = %v", got)
	}
	ts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if ts == InvalidTS {
		t.Fatal("commit returned invalid TS")
	}
	if got := m.Status(tx.ID()); got != Committed {
		t.Fatalf("status = %v", got)
	}
	got, ok := m.CommitTS(tx.ID())
	if !ok || got != ts {
		t.Fatalf("CommitTS = %v, %v", got, ok)
	}
}

func TestAbort(t *testing.T) {
	m := NewManager()
	tx := beginWriter(m)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := m.Status(tx.ID()); got != Aborted {
		t.Fatalf("status = %v", got)
	}
	if _, ok := m.CommitTS(tx.ID()); ok {
		t.Fatal("aborted txn has a commit TS")
	}
	if _, err := tx.Commit(); !errors.Is(err, ErrDone) {
		t.Fatalf("commit after abort: %v", err)
	}
}

func TestCommitTimestampsMonotonic(t *testing.T) {
	m := NewManager()
	var last TS
	for i := 0; i < 10; i++ {
		tx := beginWriter(m)
		ts, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if ts <= last {
			t.Fatalf("commit TS not monotonic: %d after %d", ts, last)
		}
		last = ts
	}
	if now := m.Now(); now != last {
		t.Fatalf("Now() = %d, want last commit %d", now, last)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m := NewManager()
	t1 := beginWriter(m) // will stay open
	t2 := beginWriter(m)
	t2.Commit()
	t3 := beginWriter(m) // starts after t2 committed, while t1 active

	snap := t3.Snapshot()
	if snap.Sees(t1.ID()) {
		t.Fatal("snapshot sees a concurrent in-progress txn")
	}
	if !snap.Sees(t2.ID()) {
		t.Fatal("snapshot misses a committed txn")
	}
	if !snap.Sees(t3.ID()) {
		t.Fatal("snapshot misses self")
	}
	if !snap.Sees(BootstrapXID) {
		t.Fatal("snapshot misses bootstrap")
	}
	if snap.Sees(InvalidXID) {
		t.Fatal("snapshot sees invalid XID")
	}
	// t1 commits now — t3's snapshot must still not see it.
	t1.Commit()
	if snap.Sees(t1.ID()) {
		t.Fatal("snapshot changed after concurrent commit")
	}
	// A future transaction is invisible.
	t4 := beginWriter(m)
	if snap.Sees(t4.ID()) {
		t.Fatal("snapshot sees a future txn")
	}
}

func TestUnknownXIDAborted(t *testing.T) {
	m := NewManager()
	if got := m.Status(999); got != Aborted {
		t.Fatalf("unknown status = %v", got)
	}
}

func TestHooks(t *testing.T) {
	m := NewManager()
	var committed, aborted bool
	tx := beginWriter(m)
	tx.OnCommit(func() { committed = true })
	tx.OnAbort(func() { aborted = true })
	tx.Commit()
	if !committed || aborted {
		t.Fatalf("commit hooks: committed=%v aborted=%v", committed, aborted)
	}

	committed, aborted = false, false
	tx2 := beginWriter(m)
	tx2.OnCommit(func() { committed = true })
	tx2.OnAbort(func() { aborted = true })
	tx2.Abort()
	if committed || !aborted {
		t.Fatalf("abort hooks: committed=%v aborted=%v", committed, aborted)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := NewManager()
	c1 := beginWriter(m)
	c1ts, _ := c1.Commit()
	a1 := beginWriter(m)
	a1.Abort()
	open := beginWriter(m) // in progress at save time

	path := filepath.Join(t.TempDir(), "pg_log")
	m.SetLogPath(path)
	if err := m.Save(m.Now()); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Status(c1.ID()); got != Committed {
		t.Fatalf("c1 = %v", got)
	}
	if ts, ok := m2.CommitTS(c1.ID()); !ok || ts != c1ts {
		t.Fatalf("c1 ts = %v, %v", ts, ok)
	}
	if got := m2.Status(a1.ID()); got != Aborted {
		t.Fatalf("a1 = %v", got)
	}
	// Crash semantics: the open transaction is implicitly aborted.
	if got := m2.Status(open.ID()); got != Aborted {
		t.Fatalf("open = %v", got)
	}
	// XIDs keep advancing past the saved horizon.
	next := m2.Begin()
	if next.ID() <= open.ID() {
		t.Fatalf("XID reuse after reload: %d <= %d", next.ID(), open.ID())
	}
}

// encodeTwoCopiesLocked is the commit-log encoder as it stood before it
// was made one pass: it staged every entry in a slice, then copied each
// into the output. encodeLocked must produce the same bytes; the caller
// holds m.mu.
func encodeTwoCopiesLocked(m *Manager, bound XID) []byte {
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

// The one-pass commit-log encoder writes the same bytes as the two-copy one
// it replaced, over committed, aborted, read-only and still-open XIDs
// spanning several status pages, and the log round-trips through Load.
func TestEncodeLogMatchesTwoCopies(t *testing.T) {
	m := NewManager()
	want := map[XID]Status{}
	var open []*Txn
	for i := 0; i < 3*statusPageSize; i++ {
		switch i % 5 {
		case 0, 1:
			tx := beginWriter(m)
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			want[tx.ID()] = Committed
		case 2:
			tx := beginWriter(m)
			tx.Abort()
			want[tx.ID()] = Aborted
		case 3:
			m.Begin().Commit() // read-only: leaves no entry
		case 4:
			tx := beginWriter(m)
			open = append(open, tx)
			want[tx.ID()] = Aborted // after a restart
		}
	}
	m.mu.RLock()
	got, ref := m.encodeLocked(m.nextXID, m.Now()), encodeTwoCopiesLocked(m, m.nextXID)
	m.mu.RUnlock()
	if !bytes.Equal(got, ref) {
		t.Fatalf("encodeLocked differs from the two-copy encoder (%d vs %d bytes)", len(got), len(ref))
	}
	if len(got) != cap(got) {
		t.Errorf("log buffer has %d spare bytes", cap(got)-len(got))
	}

	path := filepath.Join(t.TempDir(), "pg_log")
	m.SetLogPath(path)
	if err := m.Save(m.Now()); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for x, st := range want {
		if got := m2.Status(x); got != st {
			t.Fatalf("xid %d = %v after reload, want %v", x, got, st)
		}
		if st == Committed {
			ts, _ := m.CommitTS(x)
			if got, ok := m2.CommitTS(x); !ok || got != ts {
				t.Fatalf("xid %d commit ts = %v, %v; want %v", x, got, ok, ts)
			}
		}
	}
	for _, tx := range open {
		tx.Abort()
	}
}

func TestLoadCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad")
	if err := writeFile(path, []byte("not a log")); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunInTxn(t *testing.T) {
	m := NewManager()
	var id XID
	if err := RunInTxn(m, func(tx *Txn) error {
		tx.MarkWriter()
		id = tx.ID()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if m.Status(id) != Committed {
		t.Fatal("RunInTxn did not commit")
	}

	sentinel := errors.New("boom")
	if err := RunInTxn(m, func(tx *Txn) error {
		tx.MarkWriter()
		id = tx.ID()
		return sentinel
	}); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if m.Status(id) != Aborted {
		t.Fatal("RunInTxn did not abort on error")
	}

	func() {
		defer func() { recover() }()
		RunInTxn(m, func(tx *Txn) error {
			tx.MarkWriter()
			id = tx.ID()
			panic("kaboom")
		})
	}()
	if m.Status(id) != Aborted {
		t.Fatal("RunInTxn did not abort on panic")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestSnapshotAtIsHistorical(t *testing.T) {
	s := SnapshotAt(7)
	if !s.Historical() {
		t.Fatal("SnapshotAt snapshot not historical")
	}
	if s.AsOf != 7 {
		t.Fatalf("AsOf = %d, want 7", s.AsOf)
	}
	m := NewManager()
	if live := beginWriter(m).Snapshot(); live.Historical() {
		t.Fatal("live snapshot reported historical")
	}
}

func TestGlobalXminTracksOldestSnapshot(t *testing.T) {
	m := NewManager()
	old := beginWriter(m) // pins the horizon at its own XID
	if got := m.GlobalXmin(); got != old.ID() {
		t.Fatalf("GlobalXmin = %d, want %d", got, old.ID())
	}
	// Later transactions carry old in their snapshot, so the horizon
	// stays pinned even as they come and go.
	mid := beginWriter(m)
	if got := m.GlobalXmin(); got != old.ID() {
		t.Fatalf("GlobalXmin with two live txns = %d, want %d", got, old.ID())
	}
	if _, err := mid.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := m.GlobalXmin(); got != old.ID() {
		t.Fatalf("GlobalXmin after mid commit = %d, want %d", got, old.ID())
	}
	if _, err := old.Commit(); err != nil {
		t.Fatal(err)
	}
	// Nothing running: the horizon jumps to the next XID to be issued.
	next, _ := m.Counters()
	if got := m.GlobalXmin(); got != next {
		t.Fatalf("idle GlobalXmin = %d, want nextXID %d", got, next)
	}
}

func TestSnapshotXmin(t *testing.T) {
	m := NewManager()
	a := beginWriter(m)
	b := beginWriter(m)
	if got := b.Snapshot().Xmin(); got != a.ID() {
		t.Fatalf("Xmin with a active = %d, want %d", got, a.ID())
	}
	a.Abort()
	c := beginWriter(m)
	// b is still active, so c's horizon is b, not itself.
	if got := c.Snapshot().Xmin(); got != b.ID() {
		t.Fatalf("Xmin = %d, want %d", got, b.ID())
	}
	if got := SnapshotAt(5).Xmin(); got != InvalidXID {
		t.Fatalf("historical Xmin = %d, want InvalidXID", got)
	}
	b.Abort()
	c.Abort()
}

func TestApplyRecoveredCountersMonotonic(t *testing.T) {
	m := NewManager()
	m.ApplyRecoveredCounters(500, 90)
	next, now := m.Counters()
	if next != 500 || now != 90 {
		t.Fatalf("counters = (%d, %d), want (500, 90)", next, now)
	}
	// Lower values never regress the counters.
	m.ApplyRecoveredCounters(10, 2)
	next, now = m.Counters()
	if next != 500 || now != 90 {
		t.Fatalf("counters after stale apply = (%d, %d)", next, now)
	}
	if tx := beginWriter(m); tx.ID() != 500 {
		t.Fatalf("first XID after recovery = %d, want 500", tx.ID())
	}
}

// TestLockFreeStatusUnderChurn hammers the lock-free outcome table from
// reader goroutines while transactions begin and finish; the race detector
// and the invariant "committed implies a timestamp" guard the packing.
func TestLockFreeStatusUnderChurn(t *testing.T) {
	m := NewManager()
	const txns = 2000
	done := make(chan XID, txns)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last XID = firstUserXID
			for {
				select {
				case <-stop:
					return
				case x := <-done:
					if x > last {
						last = x
					}
				default:
				}
				if st := m.Status(last); st == Committed {
					if _, ok := m.CommitTS(last); !ok {
						t.Error("committed txn has no commit timestamp")
						return
					}
				}
				_ = m.Now()
			}
		}()
	}
	for i := 0; i < txns; i++ {
		tx := beginWriter(m)
		if i%3 == 0 {
			tx.Abort()
		} else {
			tx.Commit()
			select {
			case done <- tx.ID():
			default:
			}
		}
	}
	close(stop)
	readers.Wait()
	if now := m.Now(); now <= 0 {
		t.Fatalf("Now = %d after %d commits", now, txns)
	}
}
