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
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"postlob/internal/adt"
	"postlob/internal/compress"
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
	enc  *gateway.MsgEncoder // guarded by wmu
	wbuf []byte              // guarded by wmu
	// dec is owned by the reader (by DialStream before the reader starts).
	dec *gateway.MsgDecoder

	// mu guards the stream table and the terminal error.
	mu      sync.Mutex
	streams map[uint32]*clientStream
	err     error

	nextStream atomic.Uint32
	readerDone chan struct{}

	wireBytesIn atomic.Int64 // encoded (compressed) extent payload bytes
	lobBytesIn  atomic.Int64 // logical LOB bytes assembled by reads
}

// clientStream is the demux record for one in-flight request.
type clientStream struct {
	respCh   chan *gateway.Resp
	frameCh  chan *gateway.Frame
	creditCh chan uint32
	errCh    chan error
}

func newClientStream() *clientStream {
	return &clientStream{
		respCh:   make(chan *gateway.Resp, 1),
		frameCh:  make(chan *gateway.Frame, gateway.MaxWindow+4),
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
		enc:        gateway.NewMsgEncoder(),
		dec:        gateway.NewMsgDecoder(),
		streams:    make(map[uint32]*clientStream),
		readerDone: make(chan struct{}),
	}
	if err := s.writeMsg(gateway.KindHello, 0, &gateway.Hello{Proto: gateway.Proto, Chunk: gateway.DefaultChunk, Window: gateway.DefaultWindow}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	f, err := gateway.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	if f.Kind == gateway.KindErr {
		conn.Close()
		return nil, fmt.Errorf("client: server: %s", f.Payload)
	}
	if f.Kind != gateway.KindHello {
		conn.Close()
		return nil, fmt.Errorf("client: expected hello, got %v", f.Kind)
	}
	var hello gateway.Hello
	if err := s.dec.Decode(f.Payload, &hello); err != nil {
		conn.Close()
		return nil, err
	}
	s.chunk, s.window = hello.Chunk, hello.Window
	if s.chunk <= 0 || s.window <= 0 {
		conn.Close()
		return nil, fmt.Errorf("client: bad negotiation (chunk %d window %d)", s.chunk, s.window)
	}
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

// readLoop demultiplexes incoming frames to their streams.
func (s *Stream) readLoop() {
	defer close(s.readerDone)
	for {
		f, err := gateway.ReadFrame(s.conn)
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
			case cs.frameCh <- f:
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
	cs := newClientStream()
	s.streams[id] = cs
	return id, cs, nil
}

func (s *Stream) closeStream(id uint32) {
	s.mu.Lock()
	delete(s.streams, id)
	s.mu.Unlock()
}

// writeFrame serialises one frame onto the socket. Encoding happens before
// the lock; wmu is held only for the net.Conn write, never across another
// Stream method.
func (s *Stream) writeFrame(f *gateway.Frame) error {
	b, err := gateway.EncodeFrame(f)
	if err != nil {
		return err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	_, err = s.conn.Write(b)
	return err
}

// writeMsg encodes one control message and writes its frame. Encoding
// happens under wmu, so the server decodes messages in the order they were
// encoded. A message that was encoded but not framed would desynchronise
// the server's decoder, so such a failure ends the connection.
func (s *Stream) writeMsg(kind gateway.Kind, stream uint32, msg any) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	p, err := s.enc.Encode(msg)
	if err == nil {
		s.wbuf, err = gateway.AppendFrame(s.wbuf[:0], &gateway.Frame{Kind: kind, Stream: stream, Payload: p})
	}
	if err != nil {
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

// OpenAsOf opens a read-only historical view. As-of reads stream without a
// transaction, so they multiplex freely — and they are what replicas
// serve.
func (s *Stream) OpenAsOf(ts txn.TS, ref adt.ObjectRef) (*StreamObject, error) {
	r, err := s.call(&gateway.Req{Op: gateway.OpOpen, Ref: ref, AsOf: ts})
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
// non-empty frame; iteration ends at the FIN frame.
func (s *Stream) consumeStream(id uint32, cs *clientStream, handle func(f *gateway.Frame) error) error {
	for {
		select {
		case f := <-cs.frameCh:
			fin := f.Flags&gateway.FlagFIN != 0
			if len(f.Payload) > 0 {
				if err := handle(f); err != nil {
					return err
				}
			}
			if fin {
				return nil
			}
			if err := s.writeFrame(&gateway.Frame{Kind: gateway.KindCredit, Stream: id, Payload: gateway.CreditPayload(1)}); err != nil {
				return fmt.Errorf("client: credit: %w", err)
			}
		case err := <-cs.errCh:
			return err
		}
	}
}

// Read fetches the requested range as a raw extent stream, decompressing
// each extent as it arrives (just-in-time, at the client) and zero-filling
// sparse gaps. One call moves at most len(p) bytes; it returns early at
// end of object.
func (o *StreamObject) Read(p []byte) (int, error) {
	n, err := o.readRange(p, gateway.OpRawRead)
	return n, err
}

// ReadServerSide reads with server-side conversion (the pre-§3 behaviour),
// for comparison and for u-file/p-file objects which have no raw form.
func (o *StreamObject) ReadServerSide(p []byte) (int, error) {
	return o.readRange(p, gateway.OpRead)
}

func (o *StreamObject) readRange(p []byte, op gateway.Op) (int, error) {
	id, cs, err := o.s.sendReq(&gateway.Req{Op: op, Handle: o.handle, Offset: o.pos, N: int64(len(p))})
	if err != nil {
		return 0, err
	}
	defer o.s.closeStream(id)
	r, err := cs.awaitResp()
	if err != nil {
		return 0, err
	}
	if r.N == 0 {
		if o.pos >= r.Size {
			return 0, io.EOF
		}
		return 0, nil
	}
	served := r.N // logical bytes the server is streaming
	base := o.pos
	raw := op == gateway.OpRawRead
	if raw {
		// Zero-fill once; extents decode into place as they arrive.
		for i := int64(0); i < served; i++ {
			p[i] = 0
		}
	}
	var got int64
	var decoded []byte // reused from extent to extent
	err = o.s.consumeStream(id, cs, func(f *gateway.Frame) error {
		if raw {
			extents, err := gateway.DecodeExtents(f.Payload)
			if err != nil {
				return err
			}
			for i := range extents {
				e := &extents[i]
				o.s.wireBytesIn.Add(int64(len(e.Encoded)))
				decoded, err = compress.DecodeInto(decoded[:0], e.Encoded)
				if err != nil {
					return fmt.Errorf("client: extent at %d: %w", e.LogStart, err)
				}
				if e.Skip+e.Take > len(decoded) {
					return fmt.Errorf("client: extent at %d out of bounds", e.LogStart)
				}
				at := e.LogStart - base
				if at < 0 || at+int64(e.Take) > served {
					return fmt.Errorf("client: extent at %d outside served range", e.LogStart)
				}
				copy(p[at:], decoded[e.Skip:e.Skip+e.Take])
			}
			return nil
		}
		if got+int64(len(f.Payload)) > served {
			return fmt.Errorf("client: server overran announced range")
		}
		copy(p[got:], f.Payload)
		got += int64(len(f.Payload))
		return nil
	})
	if err != nil {
		return 0, err
	}
	n := served
	if !raw {
		n = got
		o.s.wireBytesIn.Add(got)
	}
	o.pos += n
	o.s.lobBytesIn.Add(n)
	return int(n), nil
}

// ReadTo streams [off, off+n) of the object into w without ever holding
// more than one chunk client-side: extents decode and flush in arrival
// order, sparse gaps emit as zeros. n < 0 means to the end. It returns the
// bytes written.
func (o *StreamObject) ReadTo(w io.Writer, off, n int64) (int64, error) {
	id, cs, err := o.s.sendReq(&gateway.Req{Op: gateway.OpRawRead, Handle: o.handle, Offset: off, N: n})
	if err != nil {
		return 0, err
	}
	defer o.s.closeStream(id)
	r, err := cs.awaitResp()
	if err != nil {
		// No raw form (u-file/p-file): fall back to server-side decode.
		if strings.Contains(err.Error(), "no raw form") {
			return o.readToServerSide(w, off, n)
		}
		return 0, err
	}
	served := r.N
	base := off
	var cursor int64 // logical bytes flushed to w
	zeros := make([]byte, 32<<10)
	writeZeros := func(upTo int64) error {
		for cursor < upTo {
			nz := upTo - cursor
			if nz > int64(len(zeros)) {
				nz = int64(len(zeros))
			}
			wn, err := w.Write(zeros[:nz])
			cursor += int64(wn)
			if err != nil {
				return err
			}
		}
		return nil
	}
	var decoded []byte // reused from extent to extent
	err = o.s.consumeStream(id, cs, func(f *gateway.Frame) error {
		extents, err := gateway.DecodeExtents(f.Payload)
		if err != nil {
			return err
		}
		for i := range extents {
			e := &extents[i]
			o.s.wireBytesIn.Add(int64(len(e.Encoded)))
			decoded, err = compress.DecodeInto(decoded[:0], e.Encoded)
			if err != nil {
				return fmt.Errorf("client: extent at %d: %w", e.LogStart, err)
			}
			if e.Skip+e.Take > len(decoded) {
				return fmt.Errorf("client: extent at %d out of bounds", e.LogStart)
			}
			at := e.LogStart - base
			if at < cursor || at+int64(e.Take) > served {
				return fmt.Errorf("client: extent at %d out of stream order", e.LogStart)
			}
			if err := writeZeros(at); err != nil {
				return err
			}
			wn, werr := w.Write(decoded[e.Skip : e.Skip+e.Take])
			cursor += int64(wn)
			if werr != nil {
				return werr
			}
		}
		return nil
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

// readToServerSide is ReadTo over server-decoded data frames.
func (o *StreamObject) readToServerSide(w io.Writer, off, n int64) (int64, error) {
	id, cs, err := o.s.sendReq(&gateway.Req{Op: gateway.OpRead, Handle: o.handle, Offset: off, N: n})
	if err != nil {
		return 0, err
	}
	defer o.s.closeStream(id)
	if _, err := cs.awaitResp(); err != nil {
		return 0, err
	}
	var total int64
	err = o.s.consumeStream(id, cs, func(f *gateway.Frame) error {
		wn, werr := w.Write(f.Payload)
		total += int64(wn)
		o.s.wireBytesIn.Add(int64(wn))
		return werr
	})
	if err != nil {
		return total, err
	}
	o.s.lobBytesIn.Add(total)
	return total, nil
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
