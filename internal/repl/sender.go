package repl

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"postlob/internal/buffer"
	"postlob/internal/catalog"
	"postlob/internal/daemon"
	"postlob/internal/storage"
	"postlob/internal/txn"
	"postlob/internal/wal"
)

// basePagesPerFrame sizes base-backup block runs: 32 pages (256 KiB) keeps
// frames comfortably under the envelope limit while amortising framing.
const basePagesPerFrame = 32

// Sender is the primary side: it serves the replica connections its gateway
// hands it, decides between catch-up streaming and a full base resync, and
// ships durable WAL to each from a per-connection replication slot.
type Sender struct {
	log  *wal.Log
	pool *buffer.Pool
	mgr  *txn.Manager
	cat  *catalog.Catalog

	srv     daemon.Server
	slotSeq atomic.Int64
}

// NewSender builds a sender over the primary's WAL, pool, transaction
// manager, and catalog — the four things a base backup and a stream are made
// of. The gateway hands it replica connections through Handle.
func NewSender(log *wal.Log, pool *buffer.Pool, mgr *txn.Manager, cat *catalog.Catalog) *Sender {
	return &Sender{log: log, pool: pool, mgr: mgr, cat: cat}
}

// Handle serves one replica connection, its gateway Hello answered, until
// the replica hangs up or Close; after Close it just closes conn.
func (s *Sender) Handle(conn net.Conn) { s.srv.Handle(conn, s.handle) }

// Close tears down replica connections and waits for their handlers and
// slot releases to finish.
func (s *Sender) Close() error { return s.srv.Close() }

// handle runs one replica connection: handshake, optional base backup, then
// the streaming loop. Any error tears the connection down; the replica
// reconnects and the handshake re-decides stream-vs-base.
func (s *Sender) handle(conn net.Conn) {
	obsConnected.Inc()
	defer obsConnected.Dec()

	w := newWire(conn)
	var hello Hello
	if err := w.recvMsg(KindHello, &hello); err != nil {
		return
	}
	name := hello.Name
	if name == "" {
		name = conn.RemoteAddr().String()
	}
	// Slots are per-connection (two replicas sharing a name must not share
	// a slot), and released on disconnect — dead replicas never pin the log.
	slot := fmt.Sprintf("repl-%d-%s", s.slotSeq.Add(1), name)

	// A replica that reports a durable position the log still retains
	// resumes streaming from it; anything else — fresh replica, or one whose
	// position checkpoint truncation has dropped — takes a base backup from
	// the current end of log.
	var from wal.LSN
	ack := &HelloAck{SegBytes: s.log.SegBytes()}
	if hello.Durable > 0 && s.log.TryAcquireSlot(slot, wal.LSN(hello.Durable)) {
		from = wal.LSN(hello.Durable)
		ack.Mode = "stream"
		durable := s.log.Durable()
		if wal.LSN(hello.Durable) > durable {
			// A replica ahead of our durable horizon replicated a future we
			// lost (or belongs to another primary); it must resync.
			s.log.ReleaseSlot(slot)
			w.sendMsg(KindHelloAck, &HelloAck{
				Err: fmt.Sprintf("replica durable %d ahead of primary durable %d", hello.Durable, durable)})
			return
		}
		ack.End = uint64(durable)
	} else {
		from = s.log.AcquireSlotAtEnd(slot)
		ack.Mode = "base"
		ack.Base = uint64(from)
		ack.End = uint64(from)
	}
	defer s.log.ReleaseSlot(slot)

	if err := w.sendMsg(KindHelloAck, ack); err != nil {
		return
	}

	lastCatVersion := hello.CatVersion
	if ack.Mode == "base" {
		obsBase.Inc()
		ver, err := s.sendBase(w, from)
		if err != nil {
			return
		}
		lastCatVersion = ver
	}

	// Status frames flow back on the same connection: they advance the slot
	// (so checkpoints can truncate behind the replica) and feed the lag
	// metrics. done closes when the replica hangs up; the handler closes the
	// connection and waits for it, so no reader outlives Close.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			var st Status
			if err := w.recvMsg(KindStatus, &st); err != nil {
				return
			}
			s.log.AdvanceSlot(slot, wal.LSN(st.Durable))
			durable := uint64(s.log.Durable())
			obsApplied.Set(int64(st.Applied))
			obsDurableLSN.Set(int64(st.Durable))
			if durable >= st.Applied {
				lag := durable - st.Applied
				obsLagBytes.Set(int64(lag))
				obsLagHist.Observe(time.Duration(lag))
			}
		}
	}()
	defer func() {
		conn.Close()
		<-done
	}()

	notify := make(chan struct{}, 1)
	s.log.NotifyDurable(notify)
	defer s.log.StopNotify(notify)

	for {
		chunk, next, err := s.log.ReadDurable(from)
		if err != nil {
			// ErrGone (a checkpoint raced our slot registration), ErrClosed
			// (primary shutting down), or corruption: drop the connection;
			// the replica's reconnect handshake sorts out what happens next.
			return
		}
		// The catalog snapshot is taken after the records read: it is then
		// guaranteed to cover every commit in the chunk, and it is shipped
		// first so the replica never applies a commit its catalog predates.
		if v := s.cat.Version(); v > lastCatVersion {
			if lastCatVersion, err = s.sendCatalog(w); err != nil {
				return
			}
		}
		if chunk != nil {
			start := from
			if ss := s.log.SegmentStart(from); start < ss {
				start = ss
			}
			if err := w.sendBlob(KindRecords, uint64(start), chunk); err != nil {
				return
			}
			obsShipped.Add(int64(len(chunk)))
			from = next
			continue // drain the durable backlog before sleeping
		}
		if next != from {
			// No records, but the position moved — a skip over a closed
			// segment's padding. The successor segment may already hold
			// durable records, so re-read immediately: sleeping here would
			// strand them until the next durable advance, which on an idle
			// primary never comes.
			from = next
			continue
		}
		select {
		case <-notify:
		case <-done:
			return
		}
	}
}

// sendBase ships a full base backup as of base: transaction state first,
// then every block of every catalog-reachable relation read through the
// buffer pool, then the catalog itself. The ordering is the consistency
// argument: the transaction state is captured after base, so it covers every
// commit below base; pool reads see pages at least as new as any logged
// image below base (newer is fine — streaming from base re-applies
// idempotently); and the catalog goes last so it covers every relation and
// object the pages materialise. Returns the catalog version shipped.
func (s *Sender) sendBase(w *wire, base wal.LSN) (uint64, error) {
	if err := w.sendBlob(KindTxnState, 0, s.mgr.EncodeState()); err != nil {
		return 0, err
	}
	for _, rel := range CatalogRels(s.cat) {
		if err := s.sendRel(w, rel); err != nil {
			return 0, err
		}
	}
	ver, err := s.sendCatalog(w)
	if err == nil {
		err = w.sendBlob(KindBaseDone, uint64(base), nil)
	}
	return ver, err
}

// sendCatalog ships a snapshot of the catalog and returns its version.
func (s *Sender) sendCatalog(w *wire) (uint64, error) {
	data, ver, err := s.cat.Export()
	if err == nil {
		err = w.sendBlob(KindCatalog, ver, data)
	}
	return ver, err
}

// sendRel ships every block of one relation in basePagesPerFrame runs, each
// page copied from the pool straight into the frame. A relation that
// vanished since the catalog snapshot (a racing drop) is skipped: the
// unlink record that dropped it is above base and will be replayed by the
// stream.
func (s *Sender) sendRel(w *wire, rel RelRef) error {
	mgr, err := s.pool.Switch().Get(rel.SM)
	if err != nil {
		return nil // storage manager not registered here (e.g. no WORM)
	}
	if !mgr.Exists(rel.Rel) {
		return nil
	}
	desc := s.pool.Rel(rel.SM, rel.Rel)
	n, err := desc.NBlocks()
	if err != nil {
		return nil
	}
	for start := storage.BlockNum(0); start < n; start += basePagesPerFrame {
		run := min(n-start, basePagesPerFrame)
		b := appendBaseHdr(w.start(KindBaseBlocks), rel, uint32(start), int(run))
		for blk := start; blk < start+run; blk++ {
			if b, err = appendPage(b, desc, blk); err != nil {
				// A concurrent drop mid-relation: stop shipping it; the
				// stream's unlink record supersedes whatever we sent.
				return nil
			}
		}
		if err := w.flush(b); err != nil {
			return err
		}
	}
	return nil
}

// appendPage pins one block and appends a stable copy of its bytes to dst.
func appendPage(dst []byte, rel *buffer.Rel, blk storage.BlockNum) ([]byte, error) {
	f, err := rel.Get(blk)
	if err != nil {
		return dst, err
	}
	defer f.Release()
	f.RLockContent()
	dst = append(dst, f.Page()...)
	f.RUnlockContent()
	return dst, nil
}

// RelRef names one page-backed relation a base backup must ship.
type RelRef struct {
	SM  storage.ID
	Rel storage.RelName
}

// CatalogRels enumerates every page-backed relation the catalog can reach:
// class heaps and their index B-trees, large-object chunk/segment relations
// and their index B-trees. u-file and p-file objects live in native OS files
// outside the buffer pool and the WAL, so physical replication does not
// carry them — the same boundary crash recovery has.
func CatalogRels(cat *catalog.Catalog) []RelRef {
	var out []RelRef
	add := func(sm storage.ID, rel storage.RelName) {
		if rel != "" {
			out = append(out, RelRef{SM: sm, Rel: rel})
		}
	}
	for _, cls := range cat.Classes() {
		add(cls.SM, cls.Rel)
		for _, idx := range cls.Indexes {
			add(cls.SM, idx.Rel)
		}
	}
	for _, meta := range cat.Objects(false) {
		add(meta.SM, meta.DataRel)
		add(meta.SM, meta.IdxRel)
		add(meta.SM, meta.SegRel)
		add(meta.SM, meta.SegIdxRel)
	}
	return out
}
