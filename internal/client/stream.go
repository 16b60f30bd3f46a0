// Package client is the remote application library: POSTQUEL over the
// gateway's chunked pipelined stream protocol, plus file-oriented
// large-object handles whose reads fetch stored compressed extents and
// decompress locally — the just-in-time, client-side output conversion of
// paper §3. For compressible data this moves ~30–50 % fewer bytes over the
// network than server-side reads, which is "crucial to good performance in
// wide-area networks".
//
// Requests multiplex over one connection — each call runs on its own
// stream, so goroutines pipeline freely — and large-object reads decompress
// raw extents as the chunk frames arrive instead of staging whole buffers
// anywhere.
package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"postlob/internal/adt"
	"postlob/internal/compress"
	"postlob/internal/core"
	"postlob/internal/crcframe"
	"postlob/internal/gateway"
	"postlob/internal/txn"
)

// Stream is a connection to a gateway. Methods are safe for concurrent
// use; concurrent calls pipeline on the wire.
type Stream struct {
	conn   net.Conn
	chunk  int // negotiated
	window int // negotiated

	// wmu serialises frame writes onto the socket (a leaf: held only
	// across encoding and conn.Write). It also fixes the order of the
	// connection's control-message stream.
	wmu  sync.Mutex
	enc  *crcframe.MsgEncoder // guarded by wmu
	wbuf []byte               // guarded by wmu
	// dec is owned by the reader (by DialStream before the reader starts).
	dec *crcframe.MsgDecoder

	// mu guards the stream table and the terminal error.
	mu      sync.Mutex
	streams map[uint32]*clientStream
	err     error

	nextStream atomic.Uint32
	readerDone chan struct{}

	wireBytesIn atomic.Int64 // read payload bytes: encoded extents, or server-decoded data
	lobBytesIn  atomic.Int64 // logical LOB bytes assembled by reads
}

// clientStream is the demux record for one in-flight request.
type clientStream struct {
	respCh   chan *gateway.Resp
	frameCh  chan streamFrame
	creditCh chan uint32
	errCh    chan error
}

// streamFrame is one received data or extent frame. Its payload lives in
// buf, a pooled frame buffer that consumeStream returns once the frame is
// handled.
type streamFrame struct {
	gateway.Frame
	buf *[]byte
}

// frameBufs recycles the buffers frames are read into: from the reader to
// the consumer and back.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// creditOne is the payload of every credit the client grants.
var creditOne = gateway.CreditPayload(1)

// newClientStream makes a stream's demux record. frameCh holds a whole
// credit window: the server may have no more frames in flight, and each
// frame leaves frameCh before its credit is granted back.
func newClientStream(window int) *clientStream {
	return &clientStream{
		respCh:   make(chan *gateway.Resp, 1),
		frameCh:  make(chan streamFrame, window),
		creditCh: make(chan uint32, gateway.MaxWindow+4),
		errCh:    make(chan error, 2),
	}
}

// DialStream connects to a gateway's stream listener and negotiates
// framing.
func DialStream(addr string) (*Stream, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return newStream(conn)
}

// newStream runs the Hello exchange on conn and starts the reader. It
// closes conn on failure.
func newStream(conn net.Conn) (*Stream, error) {
	s := &Stream{
		conn:       conn,
		enc:        crcframe.NewMsgEncoder(),
		dec:        crcframe.NewMsgDecoder(),
		streams:    make(map[uint32]*clientStream),
		readerDone: make(chan struct{}),
	}
	hello, err := gateway.Greet(conn, s.enc, s.dec, &gateway.Hello{Proto: gateway.Proto, Chunk: gateway.DefaultChunk, Window: gateway.DefaultWindow})
	if err == nil && (hello.Chunk <= 0 || hello.Window <= 0) {
		err = fmt.Errorf("bad negotiation (chunk %d window %d)", hello.Chunk, hello.Window)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	s.chunk, s.window = hello.Chunk, hello.Window
	go s.readLoop()
	return s, nil
}

// Close drops the connection; the server aborts any open transaction.
func (s *Stream) Close() error {
	err := s.conn.Close()
	<-s.readerDone
	return err
}

// WireBytesIn reports large-object payload bytes received so far: encoded
// extent bytes for raw reads, logical bytes for server-side reads — the
// compressed-transfer metric.
func (s *Stream) WireBytesIn() int64 { return s.wireBytesIn.Load() }

// LOBBytesIn reports logical large-object bytes assembled by this
// connection's reads. For cleanly completed streams it matches the
// server's gateway.stream.bytes_out accounting exactly — the conservation
// law the edge soak asserts.
func (s *Stream) LOBBytesIn() int64 { return s.lobBytesIn.Load() }

// fail records a terminal connection error and wakes every waiter.
func (s *Stream) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	for _, cs := range s.streams {
		select {
		case cs.errCh <- err:
		default:
		}
	}
	s.mu.Unlock()
}

// readLoop demultiplexes incoming frames to their streams. Frames are read
// into one pooled buffer, reused from frame to frame; a data or extent
// frame takes that buffer with it to its stream, and the reader takes a
// fresh one.
func (s *Stream) readLoop() {
	defer close(s.readerDone)
	buf := frameBufs.Get().(*[]byte)
	for {
		f, b, err := gateway.ReadFrameInto(s.conn, *buf)
		*buf = b
		if err != nil {
			if errors.Is(err, gateway.ErrFrame) {
				err = fmt.Errorf("client: torn frame: %w", err)
			} else {
				err = fmt.Errorf("client: connection lost: %w", err)
			}
			s.fail(err)
			return
		}
		if f.Kind == gateway.KindErr && f.Stream == 0 {
			s.fail(fmt.Errorf("client: server: %s", f.Payload))
			return
		}
		s.mu.Lock()
		cs := s.streams[f.Stream]
		s.mu.Unlock()
		if cs == nil {
			continue // stream already retired (e.g. late credit echo)
		}
		switch f.Kind {
		case gateway.KindResp:
			var r gateway.Resp
			if err := s.dec.Decode(f.Payload, &r); err != nil {
				s.fail(err)
				return
			}
			select {
			case cs.respCh <- &r:
			default:
			}
		case gateway.KindData, gateway.KindExtents:
			select {
			case cs.frameCh <- streamFrame{Frame: f, buf: buf}:
				buf = frameBufs.Get().(*[]byte)
			default:
				// The server overran the window we granted.
				s.fail(fmt.Errorf("client: stream %d overran its window", f.Stream))
				return
			}
		case gateway.KindCredit:
			// The same bound the server enforces: a grant outside
			// (0, MaxWindow] is a protocol violation, not a window to honour.
			n, err := gateway.DecodeCredit(f.Payload)
			if err != nil {
				s.fail(fmt.Errorf("client: torn frame: %w", err))
				return
			}
			select {
			case cs.creditCh <- n:
			default:
			}
		case gateway.KindErr:
			select {
			case cs.errCh <- fmt.Errorf("client: server: %s", f.Payload):
			default:
			}
		}
	}
}

// openStream allocates a stream id and installs its demux record.
func (s *Stream) openStream() (uint32, *clientStream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return 0, nil, s.err
	}
	id := s.nextStream.Add(1)
	cs := newClientStream(s.window)
	s.streams[id] = cs
	return id, cs, nil
}

func (s *Stream) closeStream(id uint32) {
	s.mu.Lock()
	delete(s.streams, id)
	s.mu.Unlock()
}

// writeFrame serialises one frame onto the socket, encoding it into the
// connection's reused write buffer. wmu is held only across the encoding
// and the net.Conn write, never across another Stream method.
func (s *Stream) writeFrame(f *gateway.Frame) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	var err error
	if s.wbuf, err = gateway.AppendFrame(s.wbuf[:0], f); err != nil {
		return err
	}
	_, err = s.conn.Write(s.wbuf)
	return err
}

// writeMsg encodes one control message and writes its frame. Encoding
// happens under wmu, so the server decodes messages in the order they were
// encoded. A message that was encoded but not framed would desynchronise
// the server's decoder, so such a failure ends the connection.
func (s *Stream) writeMsg(kind gateway.Kind, stream uint32, msg any) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	var err error
	if s.wbuf, err = gateway.AppendMsg(s.wbuf[:0], s.enc, kind, stream, msg); err != nil {
		s.conn.Close()
		return err
	}
	_, err = s.conn.Write(s.wbuf)
	return err
}

// sendReq opens a stream and sends its request.
func (s *Stream) sendReq(req *gateway.Req) (uint32, *clientStream, error) {
	id, cs, err := s.openStream()
	if err != nil {
		return 0, nil, err
	}
	if err := s.writeMsg(gateway.KindReq, id, req); err != nil {
		s.closeStream(id)
		return 0, nil, fmt.Errorf("client: send: %w", err)
	}
	return id, cs, nil
}

// awaitResp blocks for the stream's response.
func (cs *clientStream) awaitResp() (*gateway.Resp, error) {
	select {
	case r := <-cs.respCh:
		if r.Err != "" {
			return nil, fmt.Errorf("client: server: %s", r.Err)
		}
		return r, nil
	case err := <-cs.errCh:
		return nil, err
	}
}

// call runs one control request to completion.
func (s *Stream) call(req *gateway.Req) (*gateway.Resp, error) {
	id, cs, err := s.sendReq(req)
	if err != nil {
		return nil, err
	}
	defer s.closeStream(id)
	return cs.awaitResp()
}

// Begin opens a transaction on the connection.
func (s *Stream) Begin() error {
	_, err := s.call(&gateway.Req{Op: gateway.OpBegin})
	return err
}

// Commit commits the connection's transaction.
func (s *Stream) Commit() (txn.TS, error) {
	r, err := s.call(&gateway.Req{Op: gateway.OpCommit})
	if err != nil {
		return txn.InvalidTS, err
	}
	return r.TS, nil
}

// Abort rolls the connection's transaction back.
func (s *Stream) Abort() error {
	_, err := s.call(&gateway.Req{Op: gateway.OpAbort})
	return err
}

// Now returns the server's latest commit timestamp.
func (s *Stream) Now() (txn.TS, error) {
	r, err := s.call(&gateway.Req{Op: gateway.OpNow})
	if err != nil {
		return txn.InvalidTS, err
	}
	return r.TS, nil
}

// Result is a remote query result.
type Result struct {
	Columns   []string
	Rows      [][]adt.Value
	UsedIndex string
}

// First returns the first value of the first row.
func (r *Result) First() (adt.Value, bool) {
	if len(r.Rows) == 0 || len(r.Rows[0]) == 0 {
		return adt.Null(), false
	}
	return r.Rows[0][0], true
}

// Exec runs one statement in the connection's transaction.
func (s *Stream) Exec(query string) (*Result, error) {
	r, err := s.call(&gateway.Req{Op: gateway.OpExec, Query: query})
	if err != nil {
		return nil, err
	}
	return &Result{Columns: r.Columns, Rows: r.Rows, UsedIndex: r.UsedIndex}, nil
}

// StreamObject is a remote large-object handle on a Stream connection.
type StreamObject struct {
	s      *Stream
	handle int32
	ref    adt.ObjectRef
	asOf   txn.TS
	pos    int64
}

// Open opens a large object in the current transaction.
func (s *Stream) Open(ref adt.ObjectRef) (*StreamObject, error) {
	r, err := s.call(&gateway.Req{Op: gateway.OpOpen, Ref: ref})
	if err != nil {
		return nil, err
	}
	return &StreamObject{s: s, handle: r.Handle, ref: ref, asOf: txn.InvalidTS}, nil
}

// ErrNothingCommitted is OpenAsOf's refusal of timestamp 0 (txn.InvalidTS):
// the timestamp Now reports until some commit stamps one. The server refuses
// it too; the client does so before sending.
var ErrNothingCommitted = errors.New("client: as-of open at timestamp 0: nothing has committed yet")

// OpenAsOf opens a read-only historical view. As-of reads stream without a
// transaction, so they multiplex freely — and they are what replicas
// serve. ts must be a commit timestamp; 0 fails with ErrNothingCommitted.
func (s *Stream) OpenAsOf(ts txn.TS, ref adt.ObjectRef) (*StreamObject, error) {
	if ts == txn.InvalidTS {
		return nil, ErrNothingCommitted
	}
	r, err := s.call(&gateway.Req{Op: gateway.OpOpen, Ref: ref, Snapshot: true, AsOf: ts})
	if err != nil {
		return nil, err
	}
	return &StreamObject{s: s, handle: r.Handle, ref: ref, asOf: ts}, nil
}

// DanglingStreamObject fabricates an object around a handle the server
// never issued (or has already released). It exists so protocol tests can
// exercise the server's bad-handle path; real code gets handles from Open.
func DanglingStreamObject(s *Stream, handle int32) *StreamObject {
	return &StreamObject{s: s, handle: handle, asOf: txn.InvalidTS}
}

// Size returns the object's length.
func (o *StreamObject) Size() (int64, error) {
	r, err := o.s.call(&gateway.Req{Op: gateway.OpSize, Handle: o.handle})
	if err != nil {
		return 0, err
	}
	return r.Size, nil
}

// Close releases the remote handle.
func (o *StreamObject) Close() error {
	_, err := o.s.call(&gateway.Req{Op: gateway.OpClose, Handle: o.handle})
	return err
}

// Seek positions the handle (client-side bookkeeping).
func (o *StreamObject) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		o.pos = offset
	case io.SeekCurrent:
		o.pos += offset
	case io.SeekEnd:
		size, err := o.Size()
		if err != nil {
			return 0, err
		}
		o.pos = size + offset
	default:
		return 0, errors.New("client: bad whence")
	}
	if o.pos < 0 {
		return 0, errors.New("client: negative position")
	}
	return o.pos, nil
}

// consumeStream iterates a streaming read's frames, granting a credit back
// per frame so the server's window keeps moving. handle is called for each
// non-empty frame's payload, which is valid only during the call;
// iteration ends at the FIN frame.
func (s *Stream) consumeStream(id uint32, cs *clientStream, handle func(payload []byte) error) error {
	for {
		select {
		case f := <-cs.frameCh:
			fin := f.Flags&gateway.FlagFIN != 0
			var err error
			if len(f.Payload) > 0 {
				err = handle(f.Payload)
			}
			frameBufs.Put(f.buf)
			if err != nil {
				return err
			}
			if fin {
				return nil
			}
			if err := s.writeFrame(&gateway.Frame{Kind: gateway.KindCredit, Stream: id, Payload: creditOne}); err != nil {
				return fmt.Errorf("client: credit: %w", err)
			}
		case err := <-cs.errCh:
			return err
		}
	}
}

// Read fetches the requested range as a raw extent stream, decompressing
// each extent as it arrives (just-in-time, at the client) and zero-filling
// sparse gaps. It works on every object kind. One call moves at most
// len(p) bytes; it returns early at end of object.
func (o *StreamObject) Read(p []byte) (int, error) {
	return o.readAt(gateway.OpRawRead, p)
}

// ReadServerSide reads with server-side conversion (the pre-§3 behaviour):
// the comparison point for Read's wire savings.
func (o *StreamObject) ReadServerSide(p []byte) (int, error) {
	return o.readAt(gateway.OpRead, p)
}

// readAt is Read or ReadServerSide at the handle's position. The bytes
// land in p itself: readStream writes at most the len(p) it asks for, so
// the buffer over p[:0] never outgrows p.
func (o *StreamObject) readAt(op gateway.Op, p []byte) (int, error) {
	n, err := o.readStream(op, o.pos, int64(len(p)), bytes.NewBuffer(p[:0]))
	o.pos += n
	if err == nil && n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return int(n), err
}

// ReadTo streams [off, off+n) of the object into w without ever holding
// more than one chunk client-side: extents decode and flush in arrival
// order, sparse gaps emit as zeros. n < 0 means to the end. It returns the
// bytes written.
func (o *StreamObject) ReadTo(w io.Writer, off, n int64) (int64, error) {
	return o.readStream(gateway.OpRawRead, off, n, w)
}

// readStream is every read's consumer: it streams [off, off+n) into w in
// logical order, decoding extent frames (OpRawRead) or copying data frames
// (OpRead), and writes the announced range's bytes no frame carried —
// sparse gaps — as zeros. It returns the bytes written.
func (o *StreamObject) readStream(op gateway.Op, off, n int64, w io.Writer) (int64, error) {
	id, cs, err := o.s.sendReq(&gateway.Req{Op: op, Handle: o.handle, Offset: off, N: n})
	if err != nil {
		return 0, err
	}
	defer o.s.closeStream(id)
	r, err := cs.awaitResp()
	if err != nil {
		return 0, err
	}
	served := r.N    // logical bytes the server is streaming
	var cursor int64 // logical bytes flushed to w
	writeZeros := func(upTo int64) error {
		for cursor < upTo {
			nz := min(upTo-cursor, int64(len(zeroBlock)))
			wn, err := w.Write(zeroBlock[:nz])
			cursor += int64(wn)
			if err != nil {
				return err
			}
		}
		return nil
	}
	put := func(at int64, b []byte) error {
		if at < cursor || at+int64(len(b)) > served {
			return fmt.Errorf("client: bytes at %d out of stream order", off+at)
		}
		if err := writeZeros(at); err != nil {
			return err
		}
		wn, werr := w.Write(b)
		cursor += int64(wn)
		return werr
	}
	sc := scratchPool.Get().(*decodeScratch)
	defer scratchPool.Put(sc)
	err = o.s.consumeStream(id, cs, func(payload []byte) error {
		if op == gateway.OpRead {
			o.s.wireBytesIn.Add(int64(len(payload)))
			return put(cursor, payload)
		}
		return sc.decode(o.s, payload, func(logStart int64, b []byte) error {
			return put(logStart-off, b)
		})
	})
	if err != nil {
		return cursor, err
	}
	if err := writeZeros(served); err != nil {
		return cursor, err
	}
	o.s.lobBytesIn.Add(served)
	return cursor, nil
}

// zeroBlock is what readStream writes for sparse gaps. Writers must not modify
// the slices they are given (the io.Writer contract), so one read-only
// block serves every read.
var zeroBlock [32 << 10]byte

// decodeScratch is one raw read's decode state, pooled across reads: the
// current frame's parsed extents and the current extent's decoded bytes.
type decodeScratch struct {
	extents []core.RawExtent
	decoded []byte
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// decode decompresses each extent of one extent frame — just in time, at
// the client — and calls put with the extent's first logical byte and its
// decoded bytes, which are valid only during the call.
func (sc *decodeScratch) decode(s *Stream, payload []byte, put func(logStart int64, b []byte) error) error {
	extents, err := gateway.DecodeExtents(sc.extents[:0], payload)
	if err != nil {
		return err
	}
	sc.extents = extents
	for i := range extents {
		e := &extents[i]
		s.wireBytesIn.Add(int64(len(e.Encoded)))
		decoded, err := compress.DecodeInto(sc.decoded[:0], e.Encoded)
		if err != nil {
			return fmt.Errorf("client: extent at %d: %w", e.LogStart, err)
		}
		sc.decoded = decoded
		if e.Skip+e.Take > len(decoded) {
			return fmt.Errorf("client: extent at %d out of bounds", e.LogStart)
		}
		if err := put(e.LogStart, decoded[e.Skip:e.Skip+e.Take]); err != nil {
			return err
		}
	}
	return nil
}

// Write streams p to the object at the current position in chunk-granular
// frames under the server's credit window; the server applies chunks as
// they arrive and never stages the whole buffer.
func (o *StreamObject) Write(p []byte) (int, error) {
	id, cs, err := o.s.sendReq(&gateway.Req{Op: gateway.OpWrite, Handle: o.handle, Offset: o.pos})
	if err != nil {
		return 0, err
	}
	defer o.s.closeStream(id)

	credits := o.s.window
	rest := p
	for len(rest) > 0 {
		for credits == 0 {
			select {
			case n := <-cs.creditCh:
				credits += int(n)
			case err := <-cs.errCh:
				return 0, err
			}
		}
		credits--
		part := rest
		if len(part) > o.s.chunk {
			part = part[:o.s.chunk]
		}
		rest = rest[len(part):]
		if err := o.s.writeFrame(&gateway.Frame{Kind: gateway.KindData, Stream: id, Payload: part}); err != nil {
			return 0, fmt.Errorf("client: send: %w", err)
		}
	}
	for credits == 0 {
		select {
		case n := <-cs.creditCh:
			credits += int(n)
		case err := <-cs.errCh:
			return 0, err
		}
	}
	if err := o.s.writeFrame(&gateway.Frame{Kind: gateway.KindData, Flags: gateway.FlagFIN, Stream: id}); err != nil {
		return 0, fmt.Errorf("client: send: %w", err)
	}
	r, err := cs.awaitResp()
	if err != nil {
		return 0, err
	}
	o.pos += r.N
	return int(r.N), nil
}
