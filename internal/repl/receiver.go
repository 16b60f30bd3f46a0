package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"postlob/internal/buffer"
	"postlob/internal/catalog"
	"postlob/internal/storage"
	"postlob/internal/txn"
	"postlob/internal/wal"
)

// defaultCheckpointEvery is how many applied record bytes separate replica
// checkpoints: frequent enough that reconnect catch-up stays short, rare
// enough that FlushAll/fsync cost does not dominate replay.
const defaultCheckpointEvery = 4 << 20

// ctl file: "PRC1" magic, applied LSN u64, CRC-32 (IEEE) over the first 12
// bytes — torn-write detection for the one file the resume position lives
// in. Written via tmp+rename after the pool and commit log are durable, so
// a ctl that lags its data only ever causes harmless re-replay.
const (
	ctlFile  = "pg_repl_ctl"
	ctlMagic = 0x31435250 // "PRC1"
	ctlLen   = 16
)

// ReceiverConfig wires a Receiver into a replica database.
type ReceiverConfig struct {
	// Primary is the sender's address (host:port).
	Primary string
	// Name identifies this replica in the primary's slot names and logs.
	Name string
	// Dir is the replica's database directory: pg_repl_ctl and pg_log live
	// here.
	Dir string

	Pool *buffer.Pool
	Mgr  *txn.Manager
	Cat  *catalog.Catalog

	// CheckpointEvery overrides the applied-bytes interval between replica
	// checkpoints (default 4 MiB). Tests use small values to exercise the
	// resume path.
	CheckpointEvery uint64
	// Dial overrides the connection factory (tests inject failures).
	Dial func() (net.Conn, error)
}

// Receiver is the replica side: it maintains a connection to the primary,
// replays the shipped WAL into the local pool and transaction manager, and
// persists its progress so a replica crash resumes (not restarts) the
// stream. The apply loop is the replica's only writer; reads go through the
// server's snapshot path against the same pool.
type Receiver struct {
	cfg ReceiverConfig

	applied atomic.Uint64 // last fully-applied stream position
	durable atomic.Uint64 // persisted ctl position

	readyCh   chan struct{}
	readyOnce sync.Once

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu      sync.Mutex // guards conn and lastErr
	conn    net.Conn
	lastErr error

	chkMu sync.Mutex // serialises checkpoints (apply loop vs Stop/facade)
}

// StartReceiver loads the replica's persisted position and starts the
// replication loop. The returned receiver is already running; Stop shuts it
// down and persists final progress.
func StartReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = defaultCheckpointEvery
	}
	if cfg.Dial == nil {
		addr := cfg.Primary
		cfg.Dial = func() (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	r := &Receiver{
		cfg:     cfg,
		readyCh: make(chan struct{}),
		stop:    make(chan struct{}),
	}
	at, err := readCtl(filepath.Join(cfg.Dir, ctlFile))
	if err != nil {
		return nil, err
	}
	r.applied.Store(at)
	r.durable.Store(at)
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// Applied returns the last fully-applied stream position (volatile).
func (r *Receiver) Applied() uint64 { return r.applied.Load() }

// Durable returns the persisted resume position.
func (r *Receiver) Durable() uint64 { return r.durable.Load() }

// Ready is closed once the replica has applied everything the primary had
// durable when it connected — the gate that keeps a restarted replica from
// serving reads over crash debris its catch-up has not yet repaired.
func (r *Receiver) Ready() <-chan struct{} { return r.readyCh }

// WaitReady blocks until Ready or the timeout.
func (r *Receiver) WaitReady(d time.Duration) error {
	select {
	case <-r.readyCh:
		return nil
	case <-time.After(d):
		return fmt.Errorf("repl: replica not caught up after %v (applied %d)", d, r.Applied())
	}
}

// LastErr returns the most recent session error, for diagnostics.
func (r *Receiver) LastErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// Stop terminates the replication loop, waits for it, and persists final
// progress with a closing checkpoint.
func (r *Receiver) Stop() error {
	r.Kill()
	return r.Checkpoint()
}

// Kill terminates the replication loop without persisting progress — the
// crash-simulation path. The on-disk resume position stays wherever the
// last checkpoint put it, exactly as a power cut would leave it.
func (r *Receiver) Kill() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.mu.Lock()
	if r.conn != nil {
		r.conn.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// Checkpoint makes the replica's applied state durable: flush and sync every
// pooled page, persist the commit log, then (and only then) advance the
// on-disk resume position. A crash between any two steps re-replays from the
// old position — pure idempotent redo.
func (r *Receiver) Checkpoint() error {
	r.chkMu.Lock()
	defer r.chkMu.Unlock()
	at := r.applied.Load()
	if at == r.durable.Load() {
		return nil
	}
	if err := r.cfg.Pool.FlushAll(); err != nil {
		return err
	}
	if err := r.cfg.Pool.SyncAll(); err != nil {
		return err
	}
	if err := r.cfg.Mgr.Save(filepath.Join(r.cfg.Dir, "pg_log")); err != nil {
		return err
	}
	if err := writeCtl(filepath.Join(r.cfg.Dir, ctlFile), at); err != nil {
		return err
	}
	r.durable.Store(at)
	return nil
}

func (r *Receiver) markReady() {
	r.readyOnce.Do(func() { close(r.readyCh) })
}

func (r *Receiver) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// run is the reconnect loop: dial, run a session, back off, repeat.
func (r *Receiver) run() {
	defer r.wg.Done()
	backoff := 10 * time.Millisecond
	for !r.stopped() {
		conn, err := r.cfg.Dial()
		if err == nil {
			r.mu.Lock()
			if r.stopped() {
				r.mu.Unlock()
				conn.Close()
				return
			}
			r.conn = conn
			r.mu.Unlock()
			start := time.Now()
			err = r.session(conn)
			conn.Close()
			r.mu.Lock()
			r.conn = nil
			r.lastErr = err
			r.mu.Unlock()
			if time.Since(start) > time.Second {
				backoff = 10 * time.Millisecond // a real session ran; reset
			}
		}
		if r.stopped() {
			return
		}
		obsReconnects.Inc()
		select {
		case <-time.After(backoff):
		case <-r.stop:
			return
		}
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// session runs one connection: handshake, optional base resync, streaming.
// Any error (transport, framing, protocol) abandons the connection; the
// durable position makes the retry safe.
func (r *Receiver) session(conn net.Conn) error {
	err := writeFrame(conn, &Frame{
		Kind:       KindHello,
		Proto:      Proto,
		Name:       r.cfg.Name,
		Durable:    r.durable.Load(),
		CatVersion: r.cfg.Cat.Version(),
	})
	if err != nil {
		return err
	}
	ack, err := readFrame(conn)
	if err != nil {
		return err
	}
	if ack.Kind != KindHelloAck {
		obsFrameErr.Inc()
		return fmt.Errorf("repl: handshake got %v frame", ack.Kind)
	}
	if ack.ErrMsg != "" {
		return fmt.Errorf("repl: primary refused: %s", ack.ErrMsg)
	}
	if ack.Proto != Proto {
		return fmt.Errorf("repl: primary speaks protocol %d, want %d", ack.Proto, Proto)
	}
	segBytes := ack.SegBytes
	if segBytes == 0 {
		return fmt.Errorf("repl: primary reported zero segment size")
	}

	var expect uint64
	switch ack.Mode {
	case "base":
		if err := r.applyBase(conn); err != nil {
			return err
		}
		r.applied.Store(ack.Base)
		// Persist the base immediately: the next reconnect then resumes by
		// streaming instead of re-shipping the whole database.
		if err := r.Checkpoint(); err != nil {
			return err
		}
		expect = ack.Base
	case "stream":
		expect = r.durable.Load()
	default:
		return fmt.Errorf("repl: unknown handshake mode %q", ack.Mode)
	}

	if err := writeFrame(conn, &Frame{Kind: KindStatus, Durable: r.durable.Load(), Applied: r.applied.Load()}); err != nil {
		return err
	}
	if r.applied.Load() >= ack.End {
		r.markReady()
	}

	var sinceCheckpoint uint64
	for {
		f, err := readFrame(conn)
		if err != nil {
			if errors.Is(err, ErrFrame) {
				obsFrameErr.Inc()
			}
			return err
		}
		switch f.Kind {
		case KindCatalog:
			if err := r.cfg.Cat.ImportState(f.Catalog); err != nil {
				return err
			}
		case KindRecords:
			start := f.Start
			if !validStart(expect, start, segBytes) {
				obsFrameErr.Inc()
				return fmt.Errorf("repl: records frame at %d, expected %d", start, expect)
			}
			sw := obsApplyBatch.Start()
			err := wal.ScanRecords(wal.LSN(start), f.Recs, r.applyRecord)
			sw.Stop()
			if err != nil {
				obsFrameErr.Inc()
				return err
			}
			expect = start + uint64(len(f.Recs))
			r.applied.Store(expect)
			sinceCheckpoint += uint64(len(f.Recs))
			if sinceCheckpoint >= r.cfg.CheckpointEvery {
				if err := r.Checkpoint(); err != nil {
					return err
				}
				sinceCheckpoint = 0
			}
			if err := writeFrame(conn, &Frame{Kind: KindStatus, Durable: r.durable.Load(), Applied: expect}); err != nil {
				return err
			}
			if expect >= ack.End {
				r.markReady()
			}
		default:
			obsFrameErr.Inc()
			return fmt.Errorf("repl: unexpected %v frame mid-stream", f.Kind)
		}
	}
}

// validStart accepts the positions a contiguous stream can continue from:
// exactly where the last frame ended, or the next record boundary past a
// segment header (the sender skips headers, never records). That boundary
// is in expect's own segment when expect lies at or inside its header —
// the previous segment was filled to its last byte — and otherwise the
// first record of the next segment.
func validStart(expect, start, segBytes uint64) bool {
	if start == expect {
		return true
	}
	seg := expect / segBytes
	if first := seg*segBytes + wal.SegHeaderLen; expect < first && start == first {
		return true
	}
	return start == (seg+1)*segBytes+wal.SegHeaderLen
}

// applyBase consumes base-backup frames until BaseDone. The replica first
// drops every relation its (stale) catalog names — a relation that shrank or
// vanished on the primary must not leave longer stale storage behind for
// heap scans to trip over — then installs transaction state, page images,
// and finally the primary's catalog.
func (r *Receiver) applyBase(conn net.Conn) error {
	if err := r.wipe(); err != nil {
		return err
	}
	// A crashed earlier base attempt may have left partial relations that
	// the (still-stale) catalog does not name, so the wipe above missed
	// them. Drop each incoming relation on first touch: the backup ships
	// every block, so starting from empty is always correct, and a stale
	// longer leftover can never survive past the blocks being re-shipped.
	seen := make(map[RelRef]bool)
	for {
		f, err := readFrame(conn)
		if err != nil {
			if errors.Is(err, ErrFrame) {
				obsFrameErr.Inc()
			}
			return err
		}
		switch f.Kind {
		case KindTxnState:
			if err := r.cfg.Mgr.ApplyState(f.Txn); err != nil {
				return err
			}
		case KindBaseBlocks:
			ref := RelRef{SM: storage.ID(f.SM), Rel: storage.RelName(f.Rel)}
			if !seen[ref] {
				seen[ref] = true
				if err := r.dropRel(ref.SM, ref.Rel); err != nil {
					return err
				}
			}
			for i, img := range f.Pages {
				err := r.cfg.Pool.ApplyRedoImage(storage.ID(f.SM), storage.RelName(f.Rel), f.Blk+storage.BlockNum(i), img)
				if err != nil {
					return err
				}
			}
		case KindCatalog:
			if err := r.cfg.Cat.ImportState(f.Catalog); err != nil {
				return err
			}
		case KindBaseDone:
			return nil
		default:
			obsFrameErr.Inc()
			return fmt.Errorf("repl: unexpected %v frame in base backup", f.Kind)
		}
	}
}

// wipe drops every relation the replica's current catalog reaches — pool
// frames discarded, device storage unlinked — so a base backup lands on
// clean ground.
func (r *Receiver) wipe() error {
	for _, ref := range CatalogRels(r.cfg.Cat) {
		if err := r.dropRel(ref.SM, ref.Rel); err != nil {
			return err
		}
	}
	return nil
}

// applyRecord replays one WAL record — the same dispatch crash recovery
// uses, but through the buffer pool so concurrent snapshot reads see the
// new pages immediately.
func (r *Receiver) applyRecord(rec *wal.Record) error {
	switch rec.Type {
	case wal.TypePageImage:
		return r.cfg.Pool.ApplyRedoImage(rec.SM, rec.Rel, rec.Blk, rec.Image)
	case wal.TypeCommit:
		r.cfg.Mgr.ApplyRecoveredCommit(txn.XID(rec.XID), txn.TS(rec.TS))
	case wal.TypeAbort:
		r.cfg.Mgr.ApplyRecoveredAbort(txn.XID(rec.XID))
	case wal.TypeCheckpoint:
		r.cfg.Mgr.ApplyRecoveredCounters(txn.XID(rec.XID), txn.TS(rec.TS))
	case wal.TypeUnlink:
		return r.dropRel(rec.SM, rec.Rel)
	}
	return nil
}

// dropRel discards a relation's pooled pages and unlinks its storage.
// Snapshot readers may hold brief pins; those are waited out rather than
// failed, since replay is the only writer and readers always release.
func (r *Receiver) dropRel(sm storage.ID, rel storage.RelName) error {
	var err error
	for attempt := 0; attempt < 200; attempt++ {
		err = r.cfg.Pool.DropRel(sm, rel, true)
		if err == nil || !errors.Is(err, buffer.ErrPinned) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		return err
	}
	mgr, err := r.cfg.Pool.Switch().Get(sm)
	if err != nil {
		return nil // storage manager not registered on this replica
	}
	if mgr.Exists(rel) {
		return mgr.Unlink(rel)
	}
	return nil
}

// readCtl loads the persisted resume position; a missing file is position 0
// (fresh replica), a corrupt one is an error the operator should see rather
// than a silent full resync.
func readCtl(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(data) != ctlLen || binary.LittleEndian.Uint32(data) != ctlMagic {
		return 0, fmt.Errorf("repl: %s is not a replication control file", path)
	}
	if binary.LittleEndian.Uint32(data[12:]) != crc32.ChecksumIEEE(data[:12]) {
		return 0, fmt.Errorf("repl: %s fails its CRC", path)
	}
	return binary.LittleEndian.Uint64(data[4:]), nil
}

// writeCtl persists the resume position atomically (tmp + rename).
func writeCtl(path string, at uint64) error {
	buf := make([]byte, ctlLen)
	binary.LittleEndian.PutUint32(buf, ctlMagic)
	binary.LittleEndian.PutUint64(buf[4:], at)
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(buf[:12]))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
