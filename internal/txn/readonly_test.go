package txn

import (
	"os"
	"path/filepath"
	"testing"
)

// beginWriter starts a transaction that counts as having stamped a tuple, so
// Commit and Abort record its outcome: the transaction these package tests
// model, with no heap underneath to do the marking.
func beginWriter(m *Manager) *Txn {
	tx := m.Begin()
	tx.MarkWriter()
	return tx
}

// countingLog is a DurabilityLog that only counts its calls.
type countingLog struct {
	work, commits, aborts, waits int
}

func (c *countingLog) LogWork(XID) error { c.work++; return nil }
func (c *countingLog) LogCommit(XID, TS) (uint64, error) {
	c.commits++
	return uint64(c.commits), nil
}
func (c *countingLog) LogAbort(XID)             { c.aborts++ }
func (c *countingLog) WaitDurable(uint64) error { c.waits++; return nil }

func logSize(t *testing.T, m *Manager, path string) int64 {
	t.Helper()
	m.SetLogPath(path)
	if err := m.Save(m.Now()); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestReadOnlyTxnsLeaveNoLogEntry: transactions that never stamp a tuple
// commit and abort without growing pg_log by a byte, without moving the
// abort count or the commit timestamp, and leave their XIDs unknown.
func TestReadOnlyTxnsLeaveNoLogEntry(t *testing.T) {
	m := NewManager()
	path := filepath.Join(t.TempDir(), "pg_log")
	w := beginWriter(m)
	wts, err := w.Commit()
	if err != nil {
		t.Fatal(err)
	}
	before := logSize(t, m, path)
	aborts := m.AbortCount()
	var last XID
	for i := 0; i < 10_000; i++ {
		tx := m.Begin()
		last = tx.ID()
		if i%2 == 0 {
			ts, err := tx.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if ts != wts {
				t.Fatalf("read-only commit returned ts %d, want Now = %d", ts, wts)
			}
		} else if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
	}
	if after := logSize(t, m, path); after != before {
		t.Fatalf("pg_log grew from %d to %d bytes over 10,000 read-only transactions", before, after)
	}
	if got := m.AbortCount(); got != aborts {
		t.Fatalf("AbortCount moved from %d to %d on read-only aborts", aborts, got)
	}
	if now := m.Now(); now != wts {
		t.Fatalf("Now moved from %d to %d on read-only commits", wts, now)
	}
	if got := m.table.load(last) & 3; got != stUnknown {
		t.Fatalf("read-only XID %d left outcome word %d, want unknown", last, got)
	}
	if x := m.GlobalXmin(); x != m.Begin().ID() {
		t.Fatalf("read-only transactions still pin the horizon at %d", x)
	}

	// A writer is still recorded, commit and abort alike.
	c, a := beginWriter(m), beginWriter(m)
	if _, err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
	if m.Status(c.ID()) != Committed || m.Status(a.ID()) != Aborted {
		t.Fatalf("writer outcomes: %v, %v", m.Status(c.ID()), m.Status(a.ID()))
	}
	if got := m.AbortCount(); got != aborts+1 {
		t.Fatalf("AbortCount = %d after a writer's abort, want %d", got, aborts+1)
	}
	if after := logSize(t, m, path); after != before+2*logEntLen {
		t.Fatalf("pg_log = %d bytes after two writers, want %d", after, before+2*logEntLen)
	}
}

// TestReadOnlyTxnSkipsDurabilityLog: with a durability log attached, a
// read-only commit or abort appends nothing and waits for no flush, while
// its commit and abort hooks still run.
func TestReadOnlyTxnSkipsDurabilityLog(t *testing.T) {
	m := NewManager()
	dl := &countingLog{}
	m.SetDurabilityLog(dl)

	tx := m.Begin()
	committed := false
	tx.OnCommit(func() { committed = true })
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("read-only commit skipped its commit hook")
	}
	aborted := false
	tx = m.Begin()
	tx.OnAbort(func() { aborted = true })
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if !aborted {
		t.Fatal("read-only abort skipped its abort hook")
	}
	if *dl != (countingLog{}) {
		t.Fatalf("read-only transactions reached the durability log: %+v", *dl)
	}

	if _, err := beginWriter(m).Commit(); err != nil {
		t.Fatal(err)
	}
	if err := beginWriter(m).Abort(); err != nil {
		t.Fatal(err)
	}
	if want := (countingLog{work: 1, commits: 1, aborts: 1, waits: 1}); *dl != want {
		t.Fatalf("writers' log calls = %+v, want %+v", *dl, want)
	}
}
