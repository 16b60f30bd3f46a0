package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"postlob/internal/crcframe"
	"postlob/internal/page"
	"postlob/internal/storage"
)

// The replication wire protocol follows the gateway Hello that hands the
// connection to the Sender, whose version (gateway.Proto) covers it: these
// messages carry none of their own. Every message is one crcframe envelope
// whose body opens with its kind byte. Hello, HelloAck and Status are
// control messages on their connection direction's gob stream
// (crcframe.MsgEncoder); the data messages have fixed binary bodies after
// the kind byte, little-endian:
//
//	records, catalog, txn state, base done: at u64 | n u32 | data[n]
//	base blocks: sm u8 | blk u32 | pages u16 | relLen u16 | rel | pages × page.Size
//
// at is the records' start LSN, the catalog version, zero for txn state and
// the base LSN for base done; only base done carries no data. parseData
// checks every length against the body before anything is applied.

// Kind discriminates replication frames.
type Kind uint8

const (
	// KindHello opens a connection: replica → primary identity plus the
	// durable LSN it can resume from (0 = fresh, needs a base backup).
	KindHello Kind = 1
	// KindHelloAck answers: stream from your LSN, or take a base backup.
	KindHelloAck Kind = 2
	// KindRecords carries CRC-framed WAL records starting at an LSN.
	KindRecords Kind = 3
	// KindCatalog carries a versioned catalog export. Always shipped before
	// any records frame whose commits it covers.
	KindCatalog Kind = 4
	// KindTxnState carries the transaction manager's encoded commit log,
	// the first unit of a base backup.
	KindTxnState Kind = 5
	// KindBaseBlocks carries a run of full page images of one relation,
	// page i being block blk+i.
	KindBaseBlocks Kind = 6
	// KindBaseDone ends a base backup; streaming starts at the base LSN.
	KindBaseDone Kind = 7
	// KindStatus flows replica → primary: durable and applied progress,
	// which advances the primary's replication slot.
	KindStatus Kind = 8
)

var kindNames = [...]string{KindHello: "hello", KindHelloAck: "hello-ack", KindRecords: "records",
	KindCatalog: "catalog", KindTxnState: "txn-state", KindBaseBlocks: "base-blocks",
	KindBaseDone: "base-done", KindStatus: "status"}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Hello is the replica's opening message: its identity and resume position.
type Hello struct {
	Name       string
	Durable    uint64 // replica's persisted applied LSN
	CatVersion uint64 // replica's catalog version
}

// HelloAck is the primary's answer: how the connection proceeds.
type HelloAck struct {
	Mode     string // "stream" or "base"
	Base     uint64 // base-backup LSN — streaming starts here
	End      uint64 // primary durable LSN at connect: the ready gate
	SegBytes uint64 // WAL segment size, for position normalisation
	Err      string // non-empty refuses the connection
}

// Status reports the replica's progress.
type Status struct {
	Durable uint64 // persisted applied LSN
	Applied uint64
}

const (
	// maxBody bounds a frame body before allocation. The largest legitimate
	// frames are base-block runs and records chunks, both well under one
	// WAL segment plus framing; 64 MiB leaves generous slack.
	maxBody = 64 << 20
	// maxBasePages bounds one base-blocks run.
	maxBasePages = 4096
	maxRelLen    = 1 << 12
	// blobHdr and baseHdr are the fixed parts of the data bodies, after
	// the kind byte.
	blobHdr = 8 + 4
	baseHdr = 1 + 4 + 2 + 2
)

// dataMsg is a decoded data message. Which fields are set depends on the kind.
type dataMsg struct {
	at    uint64 // see the body layouts above; base blocks: the first block
	bytes []byte // base blocks: the page images back to back
	rel   RelRef // base blocks
}

// appendBlob appends a records, catalog, txn-state or base-done body, after
// the kind byte.
func appendBlob(dst []byte, at uint64, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, at)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// appendBaseHdr appends a base-blocks body's header, after the kind byte;
// the page images follow it.
func appendBaseHdr(dst []byte, rel RelRef, blk uint32, pages int) []byte {
	dst = append(dst, byte(rel.SM))
	dst = binary.LittleEndian.AppendUint32(dst, blk)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(pages))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rel.Rel)))
	return append(dst, rel.Rel...)
}

// parseData checks and decodes the body p (after the kind byte) of a data
// message of kind k. The result aliases p. Anything malformed is
// crcframe.ErrFrame.
func parseData(k Kind, p []byte) (dataMsg, error) {
	switch k {
	case KindRecords, KindCatalog, KindTxnState, KindBaseDone:
		if len(p) < blobHdr {
			return dataMsg{}, fmt.Errorf("%w: %v body of %d bytes", crcframe.ErrFrame, k, len(p))
		}
		d := dataMsg{at: binary.LittleEndian.Uint64(p), bytes: p[blobHdr:]}
		if n := binary.LittleEndian.Uint32(p[8:]); uint64(n) != uint64(len(d.bytes)) {
			return dataMsg{}, fmt.Errorf("%w: %v body declares %d bytes, carries %d", crcframe.ErrFrame, k, n, len(d.bytes))
		}
		if (len(d.bytes) == 0) != (k == KindBaseDone) {
			return dataMsg{}, fmt.Errorf("%w: %v frame with %d data bytes", crcframe.ErrFrame, k, len(d.bytes))
		}
		return d, nil
	case KindBaseBlocks:
		if len(p) < baseHdr {
			return dataMsg{}, fmt.Errorf("%w: base-blocks body of %d bytes", crcframe.ErrFrame, len(p))
		}
		pages := int(binary.LittleEndian.Uint16(p[5:]))
		relLen := int(binary.LittleEndian.Uint16(p[7:]))
		if relLen == 0 || relLen > maxRelLen {
			return dataMsg{}, fmt.Errorf("%w: base-blocks relation name %d bytes", crcframe.ErrFrame, relLen)
		}
		if pages == 0 || pages > maxBasePages {
			return dataMsg{}, fmt.Errorf("%w: base-blocks run of %d pages", crcframe.ErrFrame, pages)
		}
		if len(p) != baseHdr+relLen+pages*page.Size {
			return dataMsg{}, fmt.Errorf("%w: base-blocks body of %d bytes for %d pages", crcframe.ErrFrame, len(p), pages)
		}
		return dataMsg{
			at:    uint64(binary.LittleEndian.Uint32(p[1:])),
			bytes: p[baseHdr+relLen:],
			rel:   RelRef{SM: storage.ID(p[0]), Rel: storage.RelName(p[baseHdr : baseHdr+relLen])},
		}, nil
	default:
		return dataMsg{}, fmt.Errorf("%w: unexpected %v frame", crcframe.ErrFrame, k)
	}
}

// wire frames one replication connection. Each direction has one goroutine
// at a time: the write fields belong to the sender of frames, the read
// fields to their receiver.
type wire struct {
	rw io.ReadWriter

	enc  *crcframe.MsgEncoder
	wbuf []byte

	dec  *crcframe.MsgDecoder
	rbuf []byte
}

func newWire(rw io.ReadWriter) *wire {
	return &wire{rw: rw, enc: crcframe.NewMsgEncoder(), dec: crcframe.NewMsgDecoder()}
}

// start begins a frame of kind k in the reused write buffer; the caller
// appends the body and passes the result to flush.
func (w *wire) start(k Kind) []byte {
	return append(append(w.wbuf[:0], make([]byte, crcframe.HdrLen)...), byte(k))
}

// flush seals the frame built in b and writes it.
func (w *wire) flush(b []byte) error {
	w.wbuf = b
	if n := len(b) - crcframe.HdrLen; n > maxBody {
		return fmt.Errorf("repl: %v frame body %d bytes exceeds limit", Kind(b[crcframe.HdrLen]), n)
	}
	crcframe.Seal(b)
	_, err := w.rw.Write(b)
	return err
}

// sendMsg writes a control message of kind k.
func (w *wire) sendMsg(k Kind, v any) error {
	p, err := w.enc.Encode(v)
	if err != nil {
		return err
	}
	return w.flush(append(w.start(k), p...))
}

// sendBlob writes a records, catalog, txn-state or base-done frame.
func (w *wire) sendBlob(k Kind, at uint64, b []byte) error {
	return w.flush(appendBlob(w.start(k), at, b))
}

// next reads one frame into the reused read buffer and returns its kind and
// the body after the kind byte, valid until the next call.
func (w *wire) next() (Kind, []byte, error) {
	var err error
	if w.rbuf, err = crcframe.ReadInto(w.rw, w.rbuf, maxBody); err != nil {
		return 0, nil, countFrameErr(err)
	}
	return Kind(w.rbuf[crcframe.HdrLen]), w.rbuf[crcframe.HdrLen+1:], nil
}

// recvMsg reads the next frame, which must be the control message kind k,
// into v.
func (w *wire) recvMsg(k Kind, v any) error {
	got, p, err := w.next()
	switch {
	case err != nil:
		return err
	case got != k:
		return countFrameErr(fmt.Errorf("%w: got %v frame, want %v", crcframe.ErrFrame, got, k))
	}
	return countFrameErr(w.dec.Decode(p, v))
}

// recvData reads the next frame, which must be a data message.
func (w *wire) recvData() (Kind, dataMsg, error) {
	k, p, err := w.next()
	if err != nil {
		return 0, dataMsg{}, err
	}
	d, err := parseData(k, p)
	return k, d, countFrameErr(err)
}

// countFrameErr counts a malformed frame, which ends its connection.
func countFrameErr(err error) error {
	if errors.Is(err, crcframe.ErrFrame) {
		obsFrameErr.Inc()
	}
	return err
}
