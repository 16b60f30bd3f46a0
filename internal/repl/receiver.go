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

	"postlob/internal/catalog"
	"postlob/internal/core"
	"postlob/internal/crcframe"
	"postlob/internal/gateway"
	"postlob/internal/heap"
	"postlob/internal/page"
	"postlob/internal/storage"
	"postlob/internal/wal"
)

// defaultCheckpointEvery is how many applied record bytes separate replica
// checkpoints: frequent enough that reconnect catch-up stays short, rare
// enough that checkpoint flush and fsync cost does not dominate replay.
const defaultCheckpointEvery = 4 << 20

// ctl file: "PRC1" magic, applied LSN u64, CRC-32 (IEEE) over the first 12
// bytes — torn-write detection for the one file the resume position lives
// in. Written via tmp+rename after the pool and commit log are durable, so
// a ctl that lags its data only ever causes harmless re-replay.
const (
	CtlFile  = "pg_repl_ctl"
	ctlMagic = 0x31435250 // "PRC1"
	ctlLen   = 16
)

// ReceiverConfig wires a Receiver into a replica database.
type ReceiverConfig struct {
	// Primary is the primary's stream gateway address (host:port).
	Primary string
	// Name identifies this replica in the primary's slot names and logs.
	Name string
	// Dir is the replica's database directory, where pg_repl_ctl lives.
	Dir string

	Pool *heap.Pool // its manager's log path names the pg_log to save
	Cat  *catalog.Catalog

	// CheckpointEvery overrides the applied-bytes interval between replica
	// checkpoints (default 4 MiB). Tests use small values to exercise the
	// resume path.
	CheckpointEvery uint64
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

	ctlMu sync.Mutex // serialises pg_repl_ctl writes; a stale one is skipped
}

// StartReceiver loads the replica's persisted position and starts the
// replication loop. The returned receiver is already running; Stop shuts it
// down and persists final progress.
func StartReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = defaultCheckpointEvery
	}
	r := &Receiver{
		cfg:     cfg,
		readyCh: make(chan struct{}),
		stop:    make(chan struct{}),
	}
	at, err := readCtl(filepath.Join(cfg.Dir, CtlFile))
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

// Checkpoint makes the replica's applied state durable: the one checkpoint
// body (core.Checkpoint, with no log) flushes and syncs every pooled page
// and saves the commit log, then (and only then) the on-disk resume
// position advances. A crash between any two steps re-replays from the old
// position — pure idempotent redo. A replica-side background write-back
// error fails the checkpoint here, once, like a primary's.
func (r *Receiver) Checkpoint() error {
	at := r.applied.Load()
	if at == r.durable.Load() {
		return nil
	}
	if err := core.Checkpoint(r.cfg.Pool, nil); err != nil {
		return err
	}
	r.ctlMu.Lock()
	defer r.ctlMu.Unlock()
	if at <= r.durable.Load() {
		return nil
	}
	if err := writeCtl(filepath.Join(r.cfg.Dir, CtlFile), at); err != nil {
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
		conn, err := net.DialTimeout("tcp", r.cfg.Primary, 5*time.Second)
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

// session runs one connection: gateway Hello, handshake, optional base
// resync, streaming. Any error (transport, framing, protocol) abandons the
// connection; the durable position makes the retry safe.
func (r *Receiver) session(conn net.Conn) error {
	w := newWire(conn)
	_, err := gateway.Greet(conn, crcframe.NewMsgEncoder(), crcframe.NewMsgDecoder(),
		&gateway.Hello{Proto: gateway.Proto, Replication: true})
	if err == nil {
		err = w.sendMsg(KindHello, &Hello{
			Name:       r.cfg.Name,
			Durable:    r.durable.Load(),
			CatVersion: r.cfg.Cat.Version(),
		})
	}
	if err != nil {
		return fmt.Errorf("repl: hello: %w", err)
	}
	var ack HelloAck
	if err := w.recvMsg(KindHelloAck, &ack); err != nil {
		return err
	}
	if ack.Err != "" {
		return fmt.Errorf("repl: primary refused: %s", ack.Err)
	}
	segBytes := ack.SegBytes
	if segBytes == 0 {
		return fmt.Errorf("repl: primary reported zero segment size")
	}

	var expect uint64
	switch ack.Mode {
	case "base":
		if err := r.applyBase(w); err != nil {
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

	if err := w.sendMsg(KindStatus, &Status{Durable: r.durable.Load(), Applied: r.applied.Load()}); err != nil {
		return err
	}
	if r.applied.Load() >= ack.End {
		r.markReady()
	}

	// Shipped records replay through core.Redo, crash recovery's own
	// dispatcher, so concurrent snapshot reads see each page as it lands.
	redo := func(rec *wal.Record) error { return core.Redo(r.cfg.Pool.Buf, r.cfg.Pool.Mgr, rec) }
	var sinceCheckpoint uint64
	for {
		k, d, err := w.recvData()
		if err != nil {
			return err
		}
		switch k {
		case KindCatalog:
			if err := r.cfg.Cat.ImportState(d.bytes); err != nil {
				return err
			}
		case KindRecords:
			start := d.at
			if !validStart(expect, start, segBytes) {
				obsFrameErr.Inc()
				return fmt.Errorf("repl: records frame at %d, expected %d", start, expect)
			}
			sw := obsApplyBatch.Start()
			err := wal.ScanRecords(wal.LSN(start), d.bytes, redo)
			sw.Stop()
			if err != nil {
				obsFrameErr.Inc()
				return err
			}
			expect = start + uint64(len(d.bytes))
			r.applied.Store(expect)
			sinceCheckpoint += uint64(len(d.bytes))
			if sinceCheckpoint >= r.cfg.CheckpointEvery {
				if err := r.Checkpoint(); err != nil {
					return err
				}
				sinceCheckpoint = 0
			}
			if err := w.sendMsg(KindStatus, &Status{Durable: r.durable.Load(), Applied: expect}); err != nil {
				return err
			}
			if expect >= ack.End {
				r.markReady()
			}
		default:
			return countFrameErr(fmt.Errorf("%w: unexpected %v frame mid-stream", crcframe.ErrFrame, k))
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
func (r *Receiver) applyBase(w *wire) error {
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
		k, d, err := w.recvData()
		if err != nil {
			return err
		}
		switch k {
		case KindTxnState:
			if err := r.cfg.Pool.Mgr.ApplyState(d.bytes); err != nil {
				return err
			}
		case KindBaseBlocks:
			if !seen[d.rel] {
				seen[d.rel] = true
				if err := core.DropRel(r.cfg.Pool.Buf, d.rel.SM, d.rel.Rel); err != nil {
					return err
				}
			}
			// Each shipped block is a page image, redone like a logged one.
			rec := wal.Record{Type: wal.TypePageImage, SM: d.rel.SM, Rel: d.rel.Rel, Blk: storage.BlockNum(d.at)}
			for img := d.bytes; len(img) > 0; img = img[page.Size:] {
				rec.Image = img[:page.Size]
				if err := core.Redo(r.cfg.Pool.Buf, r.cfg.Pool.Mgr, &rec); err != nil {
					return err
				}
				rec.Blk++
			}
		case KindCatalog:
			if err := r.cfg.Cat.ImportState(d.bytes); err != nil {
				return err
			}
		case KindBaseDone:
			return nil
		default:
			return countFrameErr(fmt.Errorf("%w: unexpected %v frame in base backup", crcframe.ErrFrame, k))
		}
	}
}

// wipe drops every relation the replica's current catalog reaches — pool
// frames discarded, device storage unlinked — so a base backup lands on
// clean ground.
func (r *Receiver) wipe() error {
	for _, ref := range CatalogRels(r.cfg.Cat) {
		if err := core.DropRel(r.cfg.Pool.Buf, ref.SM, ref.Rel); err != nil {
			return err
		}
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

// writeCtl persists the resume position atomically and durably.
func writeCtl(path string, at uint64) error {
	buf := make([]byte, ctlLen)
	binary.LittleEndian.PutUint32(buf, ctlMagic)
	binary.LittleEndian.PutUint64(buf[4:], at)
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(buf[:12]))
	return storage.ReplaceFile(path, buf, true)
}
