package txn

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// buildLog commits and aborts a few transactions and saves the log,
// returning the manager, the log path, and the raw file bytes.
func buildLog(t *testing.T) (*Manager, string, []byte) {
	t.Helper()
	m := NewManager()
	t1 := beginWriter(m)
	t2 := beginWriter(m)
	t3 := beginWriter(m)
	if _, err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pg_log")
	m.SetLogPath(path)
	if err := m.Save(m.Now()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return m, path, data
}

// sameOutcomes reports whether two managers agree on the status and commit
// timestamp of every XID up to horizon.
func sameOutcomes(a, b *Manager, horizon XID) bool {
	for x := firstUserXID; x < horizon; x++ {
		if a.Status(x) != b.Status(x) {
			return false
		}
		tsA, okA := a.CommitTS(x)
		tsB, okB := b.CommitTS(x)
		if okA != okB || tsA != tsB {
			return false
		}
	}
	return true
}

// A commit log torn by a crash must never load as a plausible-but-wrong
// transaction history: every possible truncation has to fail loudly.
func TestLogTruncationFailsLoudly(t *testing.T) {
	_, _, data := buildLog(t)
	cut := filepath.Join(t.TempDir(), "pg_log")
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(cut, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(cut); err == nil {
			t.Fatalf("truncation to %d of %d bytes loaded without error", n, len(data))
		}
	}
}

// Likewise for single-bit corruption anywhere in the file: either Load
// fails, or (for a flip the CRC cannot see — there is none, but the test
// states the contract) the loaded history is identical to the original.
func TestLogBitFlipsFailLoudly(t *testing.T) {
	orig, _, data := buildLog(t)
	flipped := filepath.Join(t.TempDir(), "pg_log")
	for i := 0; i < len(data); i++ {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), data...)
			mut[i] ^= bit
			if err := os.WriteFile(flipped, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			m, err := Load(flipped)
			if err != nil {
				continue // loud failure: the desired outcome
			}
			if !sameOutcomes(orig, m, orig.Begin().ID()) {
				t.Fatalf("bit flip at byte %d bit %02x silently changed transaction outcomes", i, bit)
			}
		}
	}
}

// A crash between handing out XIDs and saving the log must not lead to XID
// reuse: with a log path set, every XID is durably reserved before use, so
// recovery restarts numbering above anything a lost transaction could have
// stamped into synced pages.
func TestXIDBoundPreventsReuseAfterCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pg_log")
	m := NewManager()
	m.SetLogPath(path)

	t1 := beginWriter(m)
	if _, err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(m.Now()); err != nil {
		t.Fatal(err)
	}
	// These transactions crash before any Save: their XIDs exist only in
	// synced tuple headers, never in the durable log.
	var lost []XID
	for i := 0; i < 5; i++ {
		lost = append(lost, beginWriter(m).ID())
	}

	rec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetLogPath(path)
	reborn := rec.Begin().ID()
	for _, x := range lost {
		if reborn <= x {
			t.Fatalf("recovered manager reissued XID %d (lost transaction had %d)", reborn, x)
		}
		if rec.Status(x) != Aborted {
			t.Fatalf("lost transaction %d reported %v, want aborted", x, rec.Status(x))
		}
	}
}

// Without a log path (a memory-only manager) Begin must not try to touch
// disk and Save writes nothing; once the path is set, Save must still
// persist a bound covering every XID issued before.
func TestSaveBoundsIssuedXIDsWithoutLogPath(t *testing.T) {
	m := NewManager()
	var last XID
	for i := 0; i < 3; i++ {
		tx := beginWriter(m)
		last = tx.ID()
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Save(m.Now()); err != nil {
		t.Fatalf("Save without a log path: %v", err)
	}
	path := filepath.Join(t.TempDir(), "pg_log")
	m.SetLogPath(path)
	if err := m.Save(m.Now()); err != nil {
		t.Fatal(err)
	}
	rec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Begin().ID(); got <= last {
		t.Fatalf("recovered Begin issued %d, not above saved horizon %d", got, last)
	}
}

// The old uncrc'd v1 format must be rejected, not misread.
func TestLoadRejectsLegacyMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pg_log")
	legacy := make([]byte, 24)
	legacy[0], legacy[1], legacy[2], legacy[3] = 0x47, 0x4F, 0x4C, 0x50 // "PLOG" LE
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("legacy log error = %v, want ErrCorrupt", err)
	}
}

// Begin's XID reservation rewrites pg_log, but only with the outcomes a
// checkpoint has made durable: a commit after the last saved cut may have
// pages the device never got, so it stays out of the file until the next
// Save, and a crash before that leaves it aborted.
func TestReservationRecordsOnlySavedCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pg_log")
	m := NewManager()
	m.SetLogPath(path)
	saved := beginWriter(m)
	if _, err := saved.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(m.Now()); err != nil {
		t.Fatal(err)
	}
	later := beginWriter(m)
	if _, err := later.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= xidBatch; i++ {
		if err := m.Begin().Abort(); err != nil {
			t.Fatal(err)
		}
	}
	status := func() (Status, Status) {
		t.Helper()
		rec, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Begin().ID() <= later.ID()+xidBatch {
			t.Fatalf("reservation did not move the XID bound past %d", later.ID()+xidBatch)
		}
		return rec.Status(saved.ID()), rec.Status(later.ID())
	}
	if s, l := status(); s != Committed || l != Aborted {
		t.Fatalf("after reservations: saved commit %v, later commit %v; want committed, aborted", s, l)
	}
	if err := m.Save(m.Now()); err != nil {
		t.Fatal(err)
	}
	if s, l := status(); s != Committed || l != Committed {
		t.Fatalf("after the next Save: saved commit %v, later commit %v; want both committed", s, l)
	}
}

// Saves may run from many goroutines at once; the writes share one
// temp-file name, so Save must serialise them. The
// regression this guards: one Save renaming pg_log.tmp away while another
// was between WriteFile and Rename, failing with "no such file".
func TestConcurrentSavesDoNotRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pg_log")
	m := NewManager()
	m.SetLogPath(path)

	const workers, rounds = 8, 50
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < rounds; i++ {
				tx := beginWriter(m)
				if i%3 == 0 {
					tx.Abort()
				} else if _, err := tx.Commit(); err != nil {
					errs <- err
					return
				}
				if err := m.Save(m.Now()); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Begin().ID(); got < beginWriter(m).ID()-1-xidBatch {
		t.Fatalf("recovered XID horizon %d far below live manager's", got)
	}
}
