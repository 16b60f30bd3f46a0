package postlob

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"postlob/internal/client"
)

// replPair opens a primary shipping WAL on a loopback port and a replica
// streaming from it, both rooted in fresh directories. The returned addr is
// the primary's replication endpoint (stable across a primary reopen, which
// rebinds the same port).
func replPair(t *testing.T, popts, ropts Options) (pdb, rdb *DB, addr string) {
	t.Helper()
	popts.ReplicateTo = "127.0.0.1:0"
	if popts.WALSegBlocks == 0 {
		popts.WALSegBlocks = 8
	}
	pdb, err := Open(t.TempDir(), popts)
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	addr = pdb.ReplicationAddr().String()
	ropts.ReplicaOf = addr
	if ropts.ReplCheckpointEvery == 0 {
		ropts.ReplCheckpointEvery = 64 << 10
	}
	rdb, err = Open(t.TempDir(), ropts)
	if err != nil {
		pdb.Close()
		t.Fatalf("open replica: %v", err)
	}
	return pdb, rdb, addr
}

// commitObject writes (or overwrites) one committed f-chunk object and
// returns its ref.
func commitObject(t *testing.T, db *DB, data []byte) ObjectRef {
	t.Helper()
	tx := db.Begin()
	ref, obj, err := db.LargeObjects().Create(tx, CreateOptions{Kind: FChunk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return ref
}

// serveStream serves a gateway over db on a loopback listener until the
// test ends and returns the address clients dial.
func serveStream(t testing.TB, db *DB, opts GatewayOptions) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gw := db.NewGateway(opts)
	go gw.ServeStream(l)
	t.Cleanup(func() { gw.Close() })
	return l.Addr().String()
}

// readReplica reads an object on the replica through the snapshot path the
// server edge uses — no transaction, no XID allocation.
func readReplica(t *testing.T, rdb *DB, ref ObjectRef) []byte {
	t.Helper()
	obj, err := rdb.LargeObjects().OpenAsOf(rdb.Now(), ref)
	if err != nil {
		t.Fatalf("replica open %v: %v", ref, err)
	}
	defer obj.Close()
	got, err := io.ReadAll(obj)
	if err != nil {
		t.Fatalf("replica read %v: %v", ref, err)
	}
	return got
}

// waitCaughtUp waits until the replica's applied position reaches the
// primary's durable position — the lag conservation law: on an idle
// primary, durable − applied converges to zero. The durable LSN (not the
// end of log) is the right target because only durable bytes ever ship,
// and a lazily-flushed trailing record (an abort) may sit above durable
// indefinitely on an idle primary.
func waitCaughtUp(t *testing.T, pdb, rdb *DB, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		end := pdb.Stats().WALDurableLSN
		applied := rdb.Stats().ReplAppliedLSN
		if applied == end && end > 0 {
			return
		}
		if time.Now().After(deadline) {
			snap := ObsSnapshot()
			t.Fatalf("replica lag did not converge: primary durable %d, replica applied %d (receiver err: %v; connected=%d reconnects=%d frame_errors=%d shipped=%d bases=%d)",
				end, applied, rdb.recv.LastErr(),
				snap.Gauge("repl.connected"), snap.Counter("repl.reconnects"),
				snap.Counter("repl.frame_errors"), snap.Counter("repl.bytes_shipped"),
				snap.Counter("repl.base_backups"))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReplicationBasic ships a few committed objects to one replica and
// reads them back from the replica's own pool.
func TestReplicationBasic(t *testing.T) {
	pdb, rdb, _ := replPair(t, Options{}, Options{})
	defer rdb.Close()
	defer pdb.Close()

	payloads := [][]byte{
		bytes.Repeat([]byte("replicate me "), 3000),
		bytes.Repeat([]byte{0xAB}, 50_000),
		[]byte("small"),
	}
	refs := make([]ObjectRef, len(payloads))
	for i, p := range payloads {
		refs[i] = commitObject(t, pdb, p)
	}

	if err := rdb.WaitReplicaReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, pdb, rdb, 10*time.Second)

	for i, ref := range refs {
		if got := readReplica(t, rdb, ref); !bytes.Equal(got, payloads[i]) {
			t.Fatalf("object %d: replica read %d bytes, want %d", i, len(got), len(payloads[i]))
		}
	}
	if !rdb.IsReplica() {
		t.Fatal("IsReplica() = false on a replica")
	}
}

// TestReplicationLagConservation drives a burst of commits and asserts the
// conservation law directly: once the primary goes idle, the replica's
// applied LSN equals the primary's end of log exactly — every shipped byte
// is accounted for, none invented.
func TestReplicationLagConservation(t *testing.T) {
	pdb, rdb, _ := replPair(t, Options{}, Options{})
	defer rdb.Close()
	defer pdb.Close()

	for i := 0; i < 20; i++ {
		commitObject(t, pdb, bytes.Repeat([]byte{byte(i)}, 9000))
	}
	waitCaughtUp(t, pdb, rdb, 10*time.Second)

	// A second burst after convergence must converge again (the notify
	// path, not just the initial catch-up).
	for i := 0; i < 5; i++ {
		commitObject(t, pdb, bytes.Repeat([]byte{0x55}, 4000))
	}
	waitCaughtUp(t, pdb, rdb, 10*time.Second)

	// The replica's durable position persists through a checkpoint and
	// never exceeds what it applied.
	if err := rdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := rdb.Stats()
	if s.ReplDurableLSN != s.ReplAppliedLSN {
		t.Fatalf("after checkpoint, durable %d != applied %d", s.ReplDurableLSN, s.ReplAppliedLSN)
	}
}

// TestReplicaReadOnly: the facade refuses local transactions (documented
// panic) and the gateway refuses begin/exec/write while serving snapshot
// reads.
func TestReplicaReadOnly(t *testing.T) {
	pdb, rdb, _ := replPair(t, Options{}, Options{})
	defer rdb.Close()
	defer pdb.Close()

	payload := bytes.Repeat([]byte("read only "), 2000)
	ref := commitObject(t, pdb, payload)
	waitCaughtUp(t, pdb, rdb, 10*time.Second)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Begin on a replica did not panic")
			}
		}()
		rdb.Begin() //lobvet:ignore — Begin panics on a replica (asserted above); no transaction exists to complete
	}()

	addr := serveStream(t, rdb, GatewayOptions{})
	c, err := client.DialStream(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Begin(); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("replica server Begin = %v, want read-only refusal", err)
	}
	now, err := c.Now()
	if err != nil {
		t.Fatal(err)
	}
	obj, err := c.OpenAsOf(now, ref)
	if err != nil {
		t.Fatalf("replica OpenAsOf: %v", err)
	}
	got, err := io.ReadAll(obj)
	if err != nil {
		t.Fatal(err)
	}
	obj.Close()
	if !bytes.Equal(got, payload) {
		t.Fatalf("replica served %d bytes over the wire, want %d", len(got), len(payload))
	}
}

// TestReplicaMonotonicReads pins a client to one replica across primary
// commits and replica reconnects: the timestamps it observes never move
// backward, and every snapshot it opens stays readable at its timestamp.
func TestReplicaMonotonicReads(t *testing.T) {
	pdb, rdb, _ := replPair(t, Options{}, Options{})
	defer rdb.Close()
	defer pdb.Close()

	ref := commitObject(t, pdb, []byte("v0"))
	waitCaughtUp(t, pdb, rdb, 10*time.Second)

	addr := serveStream(t, rdb, GatewayOptions{})

	var last TS
	for round := 0; round < 6; round++ {
		commitObject(t, pdb, bytes.Repeat([]byte{byte(round)}, 3000))
		waitCaughtUp(t, pdb, rdb, 10*time.Second)

		// A fresh connection each round models the same client reconnecting
		// to its pinned replica.
		c, err := client.DialStream(addr)
		if err != nil {
			t.Fatal(err)
		}
		now, err := c.Now()
		if err != nil {
			t.Fatal(err)
		}
		if now < last {
			t.Fatalf("round %d: replica time went backward: %d after %d", round, now, last)
		}
		last = now
		obj, err := c.OpenAsOf(now, ref)
		if err != nil {
			t.Fatalf("round %d: open as-of %d: %v", round, now, err)
		}
		if _, err := io.ReadAll(obj); err != nil {
			t.Fatalf("round %d: read: %v", round, err)
		}
		obj.Close()
		c.Close()
	}
}

// TestReplicaResume closes a caught-up replica, advances the primary, and
// reopens the replica directory: it must resume streaming from its durable
// position (no base resync) and converge on the new commits.
func TestReplicaResume(t *testing.T) {
	pdb, rdb, addr := replPair(t, Options{}, Options{})
	defer pdb.Close()

	first := bytes.Repeat([]byte("gen1 "), 5000)
	ref1 := commitObject(t, pdb, first)
	waitCaughtUp(t, pdb, rdb, 10*time.Second)
	rdir := rdb.dir
	if err := rdb.Close(); err != nil {
		t.Fatalf("close replica: %v", err)
	}

	second := bytes.Repeat([]byte("gen2 "), 6000)
	ref2 := commitObject(t, pdb, second)

	baseBefore := ObsSnapshot().Counter("repl.base_backups")
	rdb2, err := Open(rdir, Options{ReplicaOf: addr, ReplCheckpointEvery: 64 << 10})
	if err != nil {
		t.Fatalf("reopen replica: %v", err)
	}
	defer rdb2.Close()
	waitCaughtUp(t, pdb, rdb2, 10*time.Second)
	if got := ObsSnapshot().Counter("repl.base_backups"); got != baseBefore {
		t.Fatalf("reopen took a base resync (%d → %d); a clean close must resume by streaming", baseBefore, got)
	}

	if got := readReplica(t, rdb2, ref1); !bytes.Equal(got, first) {
		t.Fatalf("gen1 object lost across replica restart")
	}
	if got := readReplica(t, rdb2, ref2); !bytes.Equal(got, second) {
		t.Fatalf("gen2 object missing after resume")
	}
}

// TestReplicaBaseResyncAfterTruncation leaves the replica offline while the
// primary writes past its position and checkpoints the segments away: the
// reconnect must detect ErrGone and run a full base resync rather than
// silently streaming a gap.
func TestReplicaBaseResyncAfterTruncation(t *testing.T) {
	pdb, rdb, addr := replPair(t, Options{}, Options{})
	defer pdb.Close()

	commitObject(t, pdb, bytes.Repeat([]byte("early "), 2000))
	waitCaughtUp(t, pdb, rdb, 10*time.Second)
	rdir := rdb.dir
	if err := rdb.Close(); err != nil {
		t.Fatal(err)
	}

	// With 8-block segments, this burst rolls several segments; the
	// checkpoint (no slots registered — the replica is gone) truncates them.
	var refs []ObjectRef
	var wants [][]byte
	for i := 0; i < 12; i++ {
		p := bytes.Repeat([]byte{byte('a' + i)}, 30_000)
		refs = append(refs, commitObject(t, pdb, p))
		wants = append(wants, p)
	}
	if err := pdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s := pdb.Stats(); s.WALSegments > 2 {
		t.Fatalf("checkpoint kept %d segments with no replica connected", s.WALSegments)
	}

	baseBefore := ObsSnapshot().Counter("repl.base_backups")
	rdb2, err := Open(rdir, Options{ReplicaOf: addr, ReplCheckpointEvery: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb2.Close()
	waitCaughtUp(t, pdb, rdb2, 15*time.Second)
	if got := ObsSnapshot().Counter("repl.base_backups"); got != baseBefore+1 {
		t.Fatalf("expected exactly one base resync, counter went %d → %d", baseBefore, got)
	}
	for i, ref := range refs {
		if got := readReplica(t, rdb2, ref); !bytes.Equal(got, wants[i]) {
			t.Fatalf("object %d wrong after base resync", i)
		}
	}
}

// TestPromote turns a caught-up replica into a writable database: new
// transactions get fresh XIDs past the replicated history, writes work, and
// the promoted state survives a close/reopen through the new WAL.
func TestPromote(t *testing.T) {
	pdb, rdb, _ := replPair(t, Options{}, Options{})
	defer pdb.Close()

	inherited := bytes.Repeat([]byte("inherited "), 3000)
	ref := commitObject(t, pdb, inherited)
	waitCaughtUp(t, pdb, rdb, 10*time.Second)

	if err := rdb.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if rdb.IsReplica() {
		t.Fatal("IsReplica() still true after Promote")
	}
	fresh := bytes.Repeat([]byte("written after promote "), 2000)
	ref2 := commitObject(t, rdb, fresh)

	rdir := rdb.dir
	if err := rdb.Close(); err != nil {
		t.Fatalf("close promoted db: %v", err)
	}
	db2, err := Open(rdir, Options{})
	if err != nil {
		t.Fatalf("reopen promoted db: %v", err)
	}
	defer db2.Close()
	for _, probe := range []struct {
		ref  ObjectRef
		want []byte
	}{{ref, inherited}, {ref2, fresh}} {
		tx := db2.Begin()
		obj, err := db2.LargeObjects().Open(tx, probe.ref)
		if err != nil {
			t.Fatalf("open %v: %v", probe.ref, err)
		}
		got, err := io.ReadAll(obj)
		if err != nil {
			t.Fatal(err)
		}
		obj.Close()
		tx.Abort()
		if !bytes.Equal(got, probe.want) {
			t.Fatalf("object %v: %d bytes after promote+reopen, want %d", probe.ref, len(got), len(probe.want))
		}
	}
}

// TestReplicationFanOut runs two replicas off one primary and checks both
// converge independently.
func TestReplicationFanOut(t *testing.T) {
	pdb, r1, addr := replPair(t, Options{}, Options{})
	defer pdb.Close()
	defer r1.Close()
	r2, err := Open(t.TempDir(), Options{ReplicaOf: addr, ReplCheckpointEvery: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	var refs []ObjectRef
	var wants [][]byte
	for i := 0; i < 8; i++ {
		p := bytes.Repeat([]byte{byte(i + 1)}, 12_000)
		refs = append(refs, commitObject(t, pdb, p))
		wants = append(wants, p)
	}
	waitCaughtUp(t, pdb, r1, 10*time.Second)
	waitCaughtUp(t, pdb, r2, 10*time.Second)
	for i, ref := range refs {
		if got := readReplica(t, r1, ref); !bytes.Equal(got, wants[i]) {
			t.Fatalf("replica 1 object %d mismatch: %s", i, diffDesc(got, wants[i]))
		}
		if got := readReplica(t, r2, ref); !bytes.Equal(got, wants[i]) {
			t.Fatalf("replica 2 object %d mismatch: %s", i, diffDesc(got, wants[i]))
		}
	}
}

// diffDesc describes how got differs from want: lengths and the first
// divergent offset with a few bytes of context.
func diffDesc(got, want []byte) string {
	if len(got) != len(want) {
		return fmt.Sprintf("len %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			hi := i + 8
			if hi > len(got) {
				hi = len(got)
			}
			return fmt.Sprintf("first diff at %d: got % x, want % x", i, got[i:hi], want[i:hi])
		}
	}
	return "equal"
}
