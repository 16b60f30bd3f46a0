package gateway

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"postlob/internal/adt"
	"postlob/internal/core"
	"postlob/internal/crcframe"
	"postlob/internal/obs"
	"postlob/internal/query"
	"postlob/internal/txn"
)

// maxPipeline bounds how many decoded requests may queue behind the
// dispatcher on one connection. A client that pipelines deeper than this
// while a streaming op is in progress has broken the protocol contract and
// the connection is dropped — the bound is what keeps a rogue peer from
// ballooning server memory with queued requests.
const maxPipeline = 64

// errConnDone aborts in-flight streaming work when the connection dies.
var errConnDone = errors.New("gateway: connection closed")

// ServeStream accepts v2 protocol connections on l until Close. It returns
// after the listener fails or is closed, and Close waits for it to return.
func (g *Gateway) ServeStream(l net.Listener) error { return g.srv.Serve(l, g.handleStream) }

// Close stops accepting stream connections, tears down live ones, and waits
// for ServeStream and every connection handler to return.
func (g *Gateway) Close() error { return g.srv.Close() }

// writeItem is one frame queued for the connection's writer goroutine:
// either a sealed frame in a pooled buffer (fb), or a control message (msg)
// the writer frames itself, because the connection's gob stream must be
// encoded in wire order. Once the bytes have left the server (or the
// connection has died) the buffer returns to the pool and the optional
// release hook runs — chunk-buffer accounting and bytes_out counting hang
// off it so both reflect delivery, not staging.
type writeItem struct {
	fb      *frameBuf
	release func()

	msg    any
	kind   Kind
	stream uint32
}

// done retires a written or dropped item.
func (it *writeItem) done() {
	if it.fb != nil {
		it.fb.free()
	}
	if it.release != nil {
		it.release()
	}
}

// streamState is the reader-side routing record for one active stream:
// creditCh receives the peer's flow-control grants (server→client
// streams), dataCh receives the peer's data frames (client→server
// writes). Entries live in gwConn.streams only while the stream is
// active.
type streamState struct {
	creditCh chan uint32
	dataCh   chan dataFrame
}

// dataFrame is one received write-data frame. Its payload lives in fb,
// which whoever takes the frame off dataCh returns to the pool.
type dataFrame struct {
	Frame
	fb *frameBuf
}

// reqItem is one decoded request queued for the dispatcher.
type reqItem struct {
	stream uint32
	req    Req
}

// gwConn is one v2 connection. Goroutine layout:
//
//   - the reader (handleStream itself) decodes frames and routes them:
//     requests to reqCh, write data and credits to the owning stream's
//     channels. It never blocks on a full channel — overflow is a
//     protocol violation and kills the connection — so it can always keep
//     routing credits while the dispatcher streams.
//   - the dispatcher consumes reqCh in order: control ops and
//     transactional streaming run inline (serialised against the
//     session's transaction); as-of streaming reads run in their own
//     goroutines, so snapshot streams multiplex freely.
//   - the writer drains out; every enqueue selects on done so nothing
//     wedges when the connection dies.
type gwConn struct {
	g    *Gateway
	conn net.Conn

	chunk  int // negotiated chunk size
	window int // negotiated per-stream credit window

	out      chan writeItem
	done     chan struct{}
	killOnce sync.Once

	enc *crcframe.MsgEncoder // owned by the writer goroutine
	dec *crcframe.MsgDecoder // owned by the reader

	reqCh chan *reqItem

	// mu guards streams; it is a leaf — held only for map access, never
	// across channel operations, I/O, or store calls.
	mu      sync.Mutex
	streams map[uint32]*streamState

	streamWG   sync.WaitGroup // as-of streaming read goroutines
	dispDone   chan struct{}
	writerDone chan struct{}
}

// kill tears the connection down exactly once. A non-empty reason is a
// protocol violation: counted, and reported to the peer on stream 0 as a
// best-effort courtesy (it may interleave with an in-flight writer frame;
// the peer treats the resulting CRC failure as the same torn connection).
func (c *gwConn) kill(reason string) {
	c.killOnce.Do(func() {
		if reason != "" {
			obsStreamErrors.Inc()
			if b, err := AppendFrame(nil, &Frame{Kind: KindErr, Stream: 0, Payload: []byte(reason)}); err == nil {
				c.conn.Write(b)
			}
		}
		c.conn.Close()
		close(c.done)
	})
}

// send seals the payload built in fb as a frame and queues it for the
// writer. It never blocks past connection death. On a dead connection, or
// a payload over MaxPayload (which kills it), the buffer still returns to
// the pool and the release hook still runs, so accounting balances.
func (c *gwConn) send(fb *frameBuf, kind Kind, flags uint8, stream uint32, release func()) bool {
	it := writeItem{fb: fb, release: release}
	if err := sealFrame(fb.b, kind, flags, stream); err != nil {
		it.done()
		c.kill(err.Error())
		return false
	}
	select {
	case c.out <- it:
		return true
	case <-c.done:
		it.done()
		return false
	}
}

// sendFrame queues one frame whose payload is copied into a pooled buffer.
func (c *gwConn) sendFrame(kind Kind, flags uint8, stream uint32, payload []byte) bool {
	fb := newFrameBuf(len(payload))
	fb.b = append(fb.b, payload...)
	return c.send(fb, kind, flags, stream, nil)
}

// sendMsg queues a control message; the writer encodes it.
func (c *gwConn) sendMsg(kind Kind, stream uint32, msg any) bool {
	select {
	case c.out <- writeItem{msg: msg, kind: kind, stream: stream}:
		return true
	case <-c.done:
		return false
	}
}

// respond completes a stream's request.
func (c *gwConn) respond(stream uint32, r *Resp) { c.sendMsg(KindResp, stream, r) }

// sendCredit grants the peer n more in-flight frames on a stream.
func (c *gwConn) sendCredit(stream uint32, n uint32) {
	c.sendFrame(KindCredit, 0, stream, CreditPayload(n))
}

// sendStreamErr aborts one stream with an error, leaving the connection
// (and its other streams) alive.
func (c *gwConn) sendStreamErr(stream uint32, err error) {
	msg := err.Error()
	if len(msg) > 1024 {
		msg = msg[:1024]
	}
	c.sendFrame(KindErr, 0, stream, []byte(msg))
}

// register installs a stream's routing record; a duplicate id is a
// protocol violation.
func (c *gwConn) register(stream uint32, st *streamState) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.streams[stream]; dup {
		return false
	}
	c.streams[stream] = st
	return true
}

func (c *gwConn) unregister(stream uint32) {
	c.mu.Lock()
	delete(c.streams, stream)
	c.mu.Unlock()
}

func (c *gwConn) lookup(stream uint32) *streamState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.streams[stream]
}

// writer drains the out queue onto the socket, encoding control messages
// as it reaches them. After a write error it keeps draining — returning
// buffers and running release hooks so accounting balances — until the
// senders are done and out is closed.
func (c *gwConn) writer() {
	defer close(c.writerDone)
	failed := false
	var msgBuf []byte // reused: the write below is synchronous
	for it := range c.out {
		if !failed {
			var buf []byte
			var err error
			if it.msg == nil {
				buf = it.fb.b
			} else {
				// An encoded message that never reaches the wire would leave
				// the peer's decoder behind, so any failure here is fatal.
				msgBuf, err = AppendMsg(msgBuf[:0], c.enc, it.kind, it.stream, it.msg)
				buf = msgBuf
				if err != nil {
					failed = true
					c.kill(err.Error())
				}
			}
			if !failed {
				if _, err := c.conn.Write(buf); err != nil {
					failed = true
					c.kill("")
				}
			}
		}
		it.done()
	}
}

// handleStream runs one connection: the Hello, which may hand it to the
// sender, then the reader loop with the dispatcher and writer alongside.
func (g *Gateway) handleStream(conn net.Conn) {
	c := &gwConn{
		g:          g,
		conn:       conn,
		chunk:      g.opts.Chunk,
		window:     g.opts.Window,
		out:        make(chan writeItem, 16),
		done:       make(chan struct{}),
		enc:        crcframe.NewMsgEncoder(),
		dec:        crcframe.NewMsgDecoder(),
		reqCh:      make(chan *reqItem, maxPipeline),
		streams:    make(map[uint32]*streamState),
		dispDone:   make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	if !c.greet() {
		return
	}

	obsStreamConns.Inc()
	defer obsStreamConns.Dec()
	go c.writer()

	sess := &session{c: c, g: g, handles: make(map[int32]sessHandle), nextID: 1}
	go c.dispatch(sess)

	c.readLoop()

	// Teardown: connection is dead. Stop the dispatcher, wait out the
	// as-of streams, reclaim unconsumed write data, then retire the writer
	// (every sender is gone by the time out closes).
	c.kill("")
	<-c.dispDone
	c.streamWG.Wait()
	c.drainWrites()
	close(c.out)
	<-c.writerDone
}

// greet reads the client's Hello, negotiates, and answers on the
// connection itself, before the writer starts; a replica's connection then
// goes to the sender. It reports whether the reader loop should run.
func (c *gwConn) greet() bool {
	f, _, err := ReadFrameInto(c.conn, nil)
	if err != nil {
		return false
	}
	hello, err := decodeHello(f, c.dec)
	if err == nil {
		err = c.negotiate(hello)
	}
	var b []byte
	if err == nil {
		b, err = AppendMsg(nil, c.enc, KindHello, 0, &Hello{Proto: Proto, Chunk: c.chunk, Window: c.window, Replication: hello.Replication})
	}
	if err != nil {
		c.kill(err.Error())
		return false
	}
	if _, err := c.conn.Write(b); err != nil {
		c.kill("")
		return false
	}
	if hello.Replication {
		c.g.role.Replicator()(c.conn) // negotiate saw one, and a role never loses it
	}
	return !hello.Replication
}

// drainWrites returns the write-data frames the reader routed to streams
// the dispatcher never finished — the connection died first — to the pool
// and the chunk accounting. The reader and the dispatcher have exited, so
// nothing sends on or receives from these channels any more.
func (c *gwConn) drainWrites() {
	c.mu.Lock()
	streams := c.streams
	c.streams = map[uint32]*streamState{}
	c.mu.Unlock()
	for _, st := range streams {
		for len(st.dataCh) > 0 {
			d := <-st.dataCh
			c.g.chunkRelease(len(d.Payload))
			d.fb.free()
		}
	}
}

// negotiate clamps the client's Hello proposal to the server's limits.
func (c *gwConn) negotiate(h *Hello) error {
	if h.Proto != Proto {
		return fmt.Errorf("protocol %d not supported (want %d)", h.Proto, Proto)
	}
	if h.Replication && c.g.role.Replicator() == nil {
		return errors.New("replication refused: this server is a replica, or a primary opened without a write-ahead log")
	}
	if h.Chunk > 0 && h.Chunk < c.chunk {
		c.chunk = h.Chunk
	}
	if c.chunk < 4096 {
		c.chunk = 4096
	}
	if h.Window > 0 && h.Window < c.window {
		c.window = h.Window
	}
	if c.window < 1 {
		c.window = 1
	}
	return nil
}

// readLoop is the connection's reader: frame routing after the Hello until
// the peer hangs up or violates the protocol. Every frame is read into one
// pooled buffer, reused from frame to frame; a write-data frame takes that
// buffer with it to its stream, and the reader takes a fresh one.
func (c *gwConn) readLoop() {
	fb := newFrameBuf(0)
	defer func() { fb.free() }()
	var f Frame
	var err error
	for {
		if f, fb.b, err = ReadFrameInto(c.conn, fb.b); err != nil {
			if errors.Is(err, ErrFrame) {
				c.kill(err.Error())
			}
			return // EOF or torn connection
		}
		switch f.Kind {
		case KindReq:
			if f.Stream == 0 {
				c.kill("request on stream 0")
				return
			}
			it := &reqItem{stream: f.Stream}
			if err := c.dec.Decode(f.Payload, &it.req); err != nil {
				c.kill(err.Error())
				return
			}
			if it.req.Op == OpWrite {
				// Register the data route before the request is queued:
				// the client pipelines its data frames right behind the
				// request, ahead of the dispatcher picking it up.
				st := &streamState{dataCh: make(chan dataFrame, c.window+2)}
				if !c.register(f.Stream, st) {
					c.kill(fmt.Sprintf("duplicate stream %d", f.Stream))
					return
				}
			}
			select {
			case c.reqCh <- it:
			default:
				c.kill(fmt.Sprintf("pipeline deeper than %d requests", maxPipeline))
				return
			}
		case KindData:
			st := c.lookup(f.Stream)
			if st == nil || st.dataCh == nil {
				c.kill(fmt.Sprintf("data frame on unknown stream %d", f.Stream))
				return
			}
			// Write data queued here is server memory: account it so the
			// O(chunk-window) high-water mark covers the write path too.
			c.g.chunkAcquire(len(f.Payload))
			select {
			case st.dataCh <- dataFrame{Frame: f, fb: fb}:
				fb = newFrameBuf(0)
			default:
				c.g.chunkRelease(len(f.Payload))
				c.kill(fmt.Sprintf("stream %d overran its %d-frame window", f.Stream, c.window))
				return
			}
		case KindCredit:
			n, err := DecodeCredit(f.Payload)
			if err != nil {
				c.kill(err.Error())
				return
			}
			st := c.lookup(f.Stream)
			if st == nil || st.creditCh == nil {
				// A credit racing the end of its stream is legitimate —
				// the server sent FIN and deregistered while the grant
				// was in flight. Drop it.
				continue
			}
			select {
			case st.creditCh <- n:
			default:
				c.kill(fmt.Sprintf("stream %d credit overflow", f.Stream))
				return
			}
		default:
			c.kill(fmt.Sprintf("unexpected %v frame", f.Kind))
			return
		}
	}
}

// --- dispatcher ---------------------------------------------------------------

// sessHandle is one open large-object handle. asOf is InvalidTS for
// transactional handles.
type sessHandle struct {
	obj  core.Object
	asOf txn.TS
}

// session is one connection's state: at most one transaction, a table of
// open handles, and query results kept alive to end of transaction. It is
// owned by the dispatcher goroutine — no locking; as-of streaming
// goroutines never touch it (their jobs carry ref + timestamp and the
// snapshot fetch path opens its own objects).
type session struct {
	c       *gwConn
	g       *Gateway
	tx      *txn.Txn
	handles map[int32]sessHandle
	results []*query.Result
	nextID  int32
}

// dispatch consumes requests in order until the connection dies, then
// releases the session.
func (c *gwConn) dispatch(sess *session) {
	defer close(c.dispDone)
	defer sess.cleanup()
	for {
		select {
		case <-c.done:
			return
		case it := <-c.reqCh:
			sess.serve(it)
		}
	}
}

// cleanup aborts any open transaction and releases handles and results.
func (sess *session) cleanup() {
	for _, h := range sess.handles {
		h.obj.Close()
	}
	sess.handles = map[int32]sessHandle{}
	for _, res := range sess.results {
		res.Close()
	}
	sess.results = nil
	if sess.tx != nil && !sess.tx.Done() {
		sess.tx.Abort()
	}
	sess.tx = nil
}

func (sess *session) closeHandles() {
	for id, h := range sess.handles {
		h.obj.Close()
		delete(sess.handles, id)
	}
}

func (sess *session) finishResults() {
	for _, res := range sess.results {
		res.Close()
	}
	sess.results = nil
}

// needTx returns the open transaction or an error message.
func (sess *session) needTx() (*txn.Txn, string) {
	if sess.tx == nil || sess.tx.Done() {
		return nil, "no open transaction (send begin first)"
	}
	return sess.tx, ""
}

// serve times and executes one request.
func (sess *session) serve(it *reqItem) {
	obsStreamReqs.Inc()
	t := rpcTimer(it.req.Op)
	if t == nil {
		obsStreamUnknown.Inc()
		sess.c.respond(it.stream, &Resp{Err: fmt.Sprintf("unknown op %d", uint8(it.req.Op))})
		return
	}
	sw := t.Start()
	if !sess.dispatchOp(it, sw) {
		sw.Stop()
	}
	// else: an as-of streaming goroutine owns the stopwatch.
}

func failResp(format string, args ...any) *Resp {
	return &Resp{Err: fmt.Sprintf(format, args...)}
}

// dispatchOp executes one request. It returns true when an async stream
// goroutine has taken ownership of the stopwatch.
func (sess *session) dispatchOp(it *reqItem, sw obs.Stopwatch) bool {
	c := sess.c
	req := &it.req
	if sess.g.role.ReadOnly() {
		switch req.Op {
		case OpBegin, OpExec:
			c.respond(it.stream, failResp("replica is read-only: %v refused (read via as-of opens)", req.Op))
			return false
		}
		// OpWrite is refused inside serveWrite so the pipelined data
		// frames still drain.
	}
	switch req.Op {
	case OpBegin:
		if sess.tx != nil && !sess.tx.Done() {
			c.respond(it.stream, failResp("transaction already open"))
			return false
		}
		sess.tx = sess.g.store.Pool().Mgr.Begin()
		c.respond(it.stream, &Resp{})
	case OpCommit:
		if sess.tx == nil || sess.tx.Done() {
			c.respond(it.stream, failResp("no open transaction"))
			return false
		}
		sess.closeHandles()
		ts, err := sess.tx.Commit()
		sess.finishResults()
		sess.tx = nil
		if err != nil {
			c.respond(it.stream, failResp("commit: %v", err))
			return false
		}
		c.respond(it.stream, &Resp{TS: ts})
	case OpAbort:
		if sess.tx == nil || sess.tx.Done() {
			c.respond(it.stream, failResp("no open transaction"))
			return false
		}
		sess.closeHandles()
		err := sess.tx.Abort()
		sess.finishResults()
		sess.tx = nil
		if err != nil {
			c.respond(it.stream, failResp("abort: %v", err))
			return false
		}
		c.respond(it.stream, &Resp{})
	case OpNow:
		c.respond(it.stream, &Resp{TS: sess.g.store.Pool().Mgr.Now()})
	case OpExec:
		tx, errMsg := sess.needTx()
		if errMsg != "" {
			c.respond(it.stream, &Resp{Err: errMsg})
			return false
		}
		res, err := sess.g.engine.Exec(tx, req.Query)
		if err != nil {
			c.respond(it.stream, failResp("%v", err))
			return false
		}
		sess.results = append(sess.results, res)
		c.respond(it.stream, &Resp{Columns: res.Columns, Rows: res.Rows, UsedIndex: res.UsedIndex})
	case OpOpen:
		sess.open(it)
	case OpClose:
		h, ok := sess.handles[req.Handle]
		if !ok {
			c.respond(it.stream, failResp("bad handle %d", req.Handle))
			return false
		}
		delete(sess.handles, req.Handle)
		if err := h.obj.Close(); err != nil {
			c.respond(it.stream, failResp("close: %v", err))
			return false
		}
		c.respond(it.stream, &Resp{})
	case OpSize:
		h, ok := sess.handles[req.Handle]
		if !ok {
			c.respond(it.stream, failResp("bad handle %d", req.Handle))
			return false
		}
		n, err := h.obj.Size()
		if err != nil {
			c.respond(it.stream, failResp("size: %v", err))
			return false
		}
		c.respond(it.stream, &Resp{Size: n})
	case OpRead, OpRawRead:
		return sess.serveRead(it, sw)
	case OpWrite:
		sess.serveWrite(it)
	default:
		obsStreamUnknown.Inc()
		c.respond(it.stream, failResp("unknown op %d", uint8(req.Op)))
	}
	return false
}

func (sess *session) open(it *reqItem) {
	req := &it.req
	var obj core.Object
	var err error
	switch {
	case req.Snapshot == (req.AsOf == txn.InvalidTS):
		// A snapshot needs a commit timestamp; a transactional open, none.
		sess.c.respond(it.stream, failResp("open with snapshot %v at as-of timestamp %d refused", req.Snapshot, req.AsOf))
		return
	case req.Snapshot:
		obj, err = sess.g.store.OpenAsOf(req.AsOf, req.Ref)
		if err == nil && sess.g.role.ReadOnly() {
			// Snapshot open served from the replica's own pool.
			obsReplicaReads.Inc()
		}
	default:
		tx, errMsg := sess.needTx()
		if errMsg != "" {
			sess.c.respond(it.stream, &Resp{Err: errMsg})
			return
		}
		obj, err = sess.g.store.Open(tx, req.Ref)
	}
	if err != nil {
		sess.c.respond(it.stream, failResp("open: %v", err))
		return
	}
	id := sess.nextID
	sess.nextID++
	h := sessHandle{obj: obj, asOf: req.AsOf}
	sess.handles[id] = h
	sess.c.respond(it.stream, &Resp{Handle: id})
}

// streamJob is everything a streaming read needs — deliberately free of
// session state so as-of jobs can run outside the dispatcher: the
// snapshot fetch path opens its own objects from ref + timestamp.
type streamJob struct {
	ref      adt.ObjectRef
	asOf     txn.TS
	tx       *txn.Txn // nil for as-of jobs
	off, end int64
	size     int64
	raw      bool
}

// serveRead starts a streaming read. Transactional reads run inline in
// the dispatcher (serialised against their transaction's other ops);
// as-of reads run in their own goroutine and multiplex freely with
// everything else on the connection.
func (sess *session) serveRead(it *reqItem, sw obs.Stopwatch) bool {
	c := sess.c
	req := &it.req
	h, ok := sess.handles[req.Handle]
	if !ok {
		c.respond(it.stream, failResp("bad handle %d", req.Handle))
		return false
	}
	size, err := h.obj.Size()
	if err != nil {
		c.respond(it.stream, failResp("size: %v", err))
		return false
	}
	off, end := clampRange(req.Offset, req.N, size)
	job := streamJob{ref: h.obj.Ref(), asOf: h.asOf, off: off, end: end, size: size, raw: req.Op == OpRawRead}
	if h.asOf != txn.InvalidTS {
		c.streamWG.Add(1)
		go func() {
			defer c.streamWG.Done()
			defer sw.Stop()
			c.streamOut(job, it.stream)
		}()
		return true
	}
	job.tx = sess.tx
	c.streamOut(job, it.stream)
	return false
}

// bindJob resolves the extent visitor for a streaming job.
func (g *Gateway) bindJob(j *streamJob) visitRawFn {
	if j.asOf != txn.InvalidTS {
		return func(off, n int64, fn func(*core.RawExtent) error) error {
			return g.store.VisitRawAsOf(j.asOf, j.ref, off, n, fn)
		}
	}
	return func(off, n int64, fn func(*core.RawExtent) error) error {
		return g.store.VisitRaw(j.tx, j.ref, off, n, fn)
	}
}

// streamOut runs one streaming read end to end: announce with a Resp,
// stream data/extent frames under the credit window, terminate with an
// empty FIN frame (or a stream error).
func (c *gwConn) streamOut(j streamJob, stream uint32) {
	g := c.g
	st := &streamState{creditCh: make(chan uint32, MaxWindow)}
	if !c.register(stream, st) {
		c.kill(fmt.Sprintf("duplicate stream %d", stream))
		return
	}
	defer c.unregister(stream)

	c.respond(stream, &Resp{Size: j.size, N: j.end - j.off})

	kind := KindData
	if j.raw {
		kind = KindExtents
	}
	credits := c.window
	takeCredit := func() bool {
		for credits == 0 {
			select {
			case n := <-st.creditCh:
				credits += int(n)
			case <-c.done:
				return false
			}
		}
		credits--
		return true
	}
	// emitFrame ships one frame buffer under the window; release runs after
	// the bytes hit the socket.
	emitFrame := func(fb *frameBuf, release func()) error {
		if !takeCredit() {
			fb.free()
			if release != nil {
				release()
			}
			return errConnDone
		}
		obsStreamChunksOut.Inc()
		if !c.send(fb, kind, 0, stream, release) {
			return errConnDone
		}
		return nil
	}

	visit := g.bindJob(&j)
	fetch := g.dataFetch
	if j.raw {
		fetch = g.rawFetch
	}
	err := g.pumpChunks(c.chunk, j.off, j.end,
		func(o, n int64) (*chunkPiece, error) { return fetch(visit, o, n) },
		func(p *chunkPiece, last bool) error { return emitPiece(g, p, emitFrame) })
	if err != nil {
		if !errors.Is(err, errConnDone) {
			c.sendStreamErr(stream, err)
		}
		return
	}
	if !takeCredit() {
		return
	}
	obsStreamChunksOut.Inc()
	c.sendFrame(kind, FlagFIN, stream, nil)
}

// emitPiece ships one fetched chunk's frames in order; the last one's
// release returns the piece's accounting and counts its logical bytes as
// served. A fully sparse raw chunk ships nothing — the client zero-fills
// from the announced range — but its logical bytes still count as served.
// On error the frames not yet shipped stay with the piece for the pump to
// release.
func emitPiece(g *Gateway, p *chunkPiece, emitFrame func(*frameBuf, func()) error) error {
	served := func() {
		p.release(g)
		obsStreamBytesOut.Add(p.n)
	}
	if len(p.frames) == 0 {
		served()
		return nil
	}
	// Once the last frame is queued the piece belongs to the writer, whose
	// release may run at once: the loop must not look at it again.
	frames := p.frames
	for i, fb := range frames {
		p.frames = frames[i+1:]
		var rel func()
		if i == len(frames)-1 {
			rel = served
		}
		if err := emitFrame(fb, rel); err != nil {
			return err
		}
	}
	return nil
}

// serveWrite consumes a streaming write: the client's data frames arrive
// on the stream's dataCh (routed by the reader), are applied in order at
// ascending offsets, and each consumed frame earns the client a credit.
// On failure the server still drains — and credits — to the FIN so the
// pipelined sender never stalls, then reports the error in the Resp.
func (sess *session) serveWrite(it *reqItem) {
	c := sess.c
	st := c.lookup(it.stream)
	if st == nil || st.dataCh == nil {
		c.kill(fmt.Sprintf("write stream %d not registered", it.stream))
		return
	}

	var failMsg string
	var obj core.Object
	switch h, ok := sess.handles[it.req.Handle]; {
	case sess.g.role.ReadOnly():
		failMsg = "replica is read-only: write refused"
	case !ok:
		failMsg = fmt.Sprintf("bad handle %d", it.req.Handle)
	case h.asOf != txn.InvalidTS:
		failMsg = "as-of handle is read-only"
	default:
		obj = h.obj
		if _, err := obj.Seek(it.req.Offset, io.SeekStart); err != nil {
			failMsg = fmt.Sprintf("seek: %v", err)
			obj = nil
		}
	}

	var total int64
	for {
		select {
		case <-c.done:
			return // the stream stays registered: teardown drains its frames
		case f := <-st.dataCh:
			if len(f.Payload) > 0 && failMsg == "" {
				wn, err := obj.Write(f.Payload)
				if err != nil {
					failMsg = fmt.Sprintf("write: %v", err)
				} else {
					total += int64(wn)
					obsStreamBytesIn.Add(int64(wn))
					obsStreamChunksIn.Inc()
				}
			}
			sess.g.chunkRelease(len(f.Payload))
			f.fb.free()
			if f.Flags&FlagFIN != 0 {
				c.unregister(it.stream)
				if failMsg != "" {
					c.respond(it.stream, &Resp{Err: failMsg})
				} else {
					c.respond(it.stream, &Resp{N: total})
				}
				return
			}
			c.sendCredit(it.stream, 1)
		}
	}
}
