package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"time"

	"postlob"
	"postlob/internal/client"
	"postlob/internal/compress"
	"postlob/internal/storage"
)

// spec is one workload's geometry. The sizes and counts are fixed; only
// contents, offsets and object order follow the seed.
type spec struct {
	name string
	why  string

	clients      int
	objects      int
	objBytes     int     // bytes per object
	opBytes      int     // user bytes one op moves; 0 = the whole object
	poolPages    int     // buffer pool size in 8 KiB pages
	codec        string  // large-object codec ("" = none)
	compressible float64 // share of each frame that is a zero run
	write        bool    // replace_wal: WAL durability, vacuum, overwriting ops
	edge         bool    // edge_stream: ops go through the v2 stream gateway
	opsPerSec    int     // generous estimate, sizes the latency sample buffer
	warmOps      int     // ops per client run, unmeasured, at the end of set-up
}

const (
	frameBytes      = 4096      // the paper's frame, frame_cold's read unit
	replaceBytes    = 128 << 10 // replace_wal's overwrite unit
	checkpointEvery = 256       // replace_wal: commits between client checkpoints
	replacements    = 64        // replace_wal: distinct 128 KiB payloads
	fchunkPayload   = 8000      // core.DefaultChunkSize, for core.read_amp
	setupRepeats    = 3         // set-ups per run; setup_s is their median
	windowSlices    = 10        // throughput_mb_s is the median over these
	verifyPiece     = 1 << 20   // read size of the verification pass
	vacuumInterval  = 50 * time.Millisecond
)

var specs = []spec{
	{
		name:    "scan_hot",
		why:     "whole-object sequential reads of a pool-resident set: the CPU and copy path core-btree-heap-buffer-compress, with storage, WAL and gateway idle",
		clients: 1, objects: 128, objBytes: 1 << 20, poolPages: 24576, opsPerSec: 20_000, warmOps: 256,
	},
	{
		name:    "frame_cold",
		why:     "the paper's random 4,096-byte frame reads over a set 16x the pool: a B-tree descent, pool miss, eviction and device read per op",
		clients: 1, objects: 8, objBytes: 32 << 20, opBytes: frameBytes, poolPages: 2048, opsPerSec: 400_000, warmOps: 32768,
	},
	{
		name:    "replace_wal",
		why:     "one-transaction 128 KiB overwrites under WAL durability with bgwriter, vacuum and checkpoints: the only workload where wal, txn, inserts and space reclamation work",
		clients: 1, objects: 16, objBytes: 4 << 20, opBytes: replaceBytes, poolPages: 4096, write: true, opsPerSec: 20_000, warmOps: 2 * checkpointEvery,
	},
	{
		name:    "edge_stream",
		why:     "two loopback v2-stream clients reading fast-codec objects shipped as compressed extents: gateway chunk pump, frame codec, credit window and client-side decode, with storage idle",
		clients: 2, objects: 128, objBytes: 1 << 20, poolPages: 24576, codec: "fast", compressible: 0.5, edge: true, opsPerSec: 20_000, warmOps: 128,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// shrunk divides the geometry by k so the unit tests can smoke a workload in
// a fraction of a second; the benchmark proper always runs k = 1.
func (s spec) shrunk(k int) spec {
	if k <= 1 {
		return s
	}
	s.objects = max(2, s.objects/k)
	s.objBytes = max(2*replaceBytes, s.objBytes/k)
	s.poolPages = max(512, s.poolPages/k) // below this the 16-way partitioned pool runs out of unpinned frames
	s.warmOps = max(8, s.warmOps/k)
	return s
}

func (s spec) liveBytes() int64 { return int64(s.objects) * int64(s.objBytes) }

// oracle is the in-memory model of every object's expected bytes.
type oracle [][]byte

// genOracle makes the workload's objects from the seed: one GenFrame call
// per object, seeded by (seed, object index).
func genOracle(s spec, seed int64) oracle {
	o := make(oracle, s.objects)
	for i := range o {
		o[i] = compress.GenFrame(seed*1_000_003+int64(i), s.objBytes, s.compressible)
	}
	return o
}

// edgesMatch is the O(1) per-op check: the first and last 8 bytes of got
// against the oracle's bytes at off.
func (o oracle) edgesMatch(obj int, off int64, got []byte) bool {
	want := o[obj][off : off+int64(len(got))]
	n := len(got)
	return n >= 8 && bytes.Equal(got[:8], want[:8]) && bytes.Equal(got[n-8:], want[n-8:])
}

// bench is one set-up of one workload: an open database behind its front
// door, the oracle, and the counters the metrics are read from.
type bench struct {
	spec   spec
	seed   int64
	dir    string
	oracle oracle
	io     *ioCounters
	tr     *tracer // tracer of the window in progress, nil when untraced

	db   *postlob.DB
	refs []postlob.ObjectRef
	// writtenBefore is the user bytes written before the window: the load,
	// and replace_wal's warm-up.
	writtenBefore int64

	// edge_stream's front door.
	gw      *postlob.Gateway
	served  chan error
	streams []*client.Stream
	asOf    postlob.TS
}

// open opens the database on b.dir. The load runs with the background I/O
// engine off: every page then reaches the device exactly once, at eviction or
// at the checkpoint, so the load's share of write_amp and space_amp repeats
// exactly instead of following the background writer's timing.
func (b *bench) open(loading bool) error {
	opts := postlob.Options{
		BufferPoolPages: b.spec.poolPages,
		WrapStorage: func(_ storage.ID, m storage.Manager) storage.Manager {
			return &countingManager{Manager: m, c: b.io}
		},
	}
	if loading {
		opts.BackgroundWriter = new(bool)
	}
	if b.spec.write {
		opts.Durability = postlob.DurabilityWAL
		opts.AutoVacuum = &postlob.VacuumOptions{Interval: vacuumInterval, ReclaimHistory: true}
	}
	db, err := postlob.Open(b.dir, opts)
	if err != nil {
		return err
	}
	b.db = db
	return nil
}

// load creates the objects, one transaction each.
func (b *bench) load() error {
	b.refs = make([]postlob.ObjectRef, len(b.oracle))
	for i, data := range b.oracle {
		tx := b.db.Begin()
		ref, obj, err := b.db.LargeObjects().Create(tx, postlob.CreateOptions{Kind: postlob.FChunk, Codec: b.spec.codec})
		if err != nil {
			tx.Abort()
			return err
		}
		if _, err := obj.Write(data); err != nil {
			tx.Abort()
			return err
		}
		if err := obj.Close(); err != nil {
			tx.Abort()
			return err
		}
		if _, err := tx.Commit(); err != nil {
			return err
		}
		b.refs[i] = ref
		b.writtenBefore += int64(len(data))
	}
	return nil
}

// openFrontDoor starts what the clients talk to: nothing for the in-process
// workloads, the stream gateway and one connection per client for
// edge_stream.
func (b *bench) openFrontDoor() error {
	if !b.spec.edge {
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.gw = b.db.NewGateway(postlob.GatewayOptions{})
	b.served = make(chan error, 1)
	go func() { b.served <- b.gw.ServeStream(ln) }()
	b.asOf = b.db.Now()
	for i := 0; i < b.spec.clients; i++ {
		s, err := client.DialStream(ln.Addr().String())
		if err != nil {
			return err
		}
		b.streams = append(b.streams, s)
	}
	return nil
}

func (b *bench) closeFrontDoor() error {
	if b.gw == nil {
		return nil
	}
	var first error
	for _, s := range b.streams {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := b.gw.Close(); err != nil && first == nil {
		first = err
	}
	<-b.served // ServeStream returns once the listener is closed
	b.gw, b.streams = nil, nil
	return first
}

// setUp is the timed set-up: open the empty directory, load, checkpoint,
// close, reopen, open the front door, read every object back through it (the
// load's verification), and run warmOps unmeasured ops per client so the
// pool, the daemons and the write-ahead log are in their steady state when
// the window opens.
func (b *bench) setUp() error {
	if err := b.open(true); err != nil {
		return err
	}
	if err := b.load(); err != nil {
		return err
	}
	if err := b.db.Checkpoint(); err != nil {
		return err
	}
	if err := b.db.Close(); err != nil {
		return err
	}
	if err := b.open(false); err != nil {
		return err
	}
	if err := b.openFrontDoor(); err != nil {
		return err
	}
	bad, err := b.verify()
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d objects differ from what was loaded", bad, len(b.oracle))
	}
	warm, err := b.runWindow(time.Hour, b.spec.warmOps, nil)
	if err != nil {
		return err
	}
	if warm.failed > 0 {
		return fmt.Errorf("%d of %d warm-up ops failed; first: %w", warm.failed, warm.attempted, warm.firstErr)
	}
	if b.spec.write {
		b.writtenBefore += warm.userBytes
	}
	return nil
}

// tearDown closes everything and removes the data directory.
func (b *bench) tearDown() error {
	err := b.closeFrontDoor()
	if b.db != nil {
		if cerr := b.db.Close(); cerr != nil && err == nil {
			err = cerr
		}
		b.db = nil
	}
	if rerr := os.RemoveAll(b.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// verify reads every object in full through the workload's front door and
// returns how many differ from the oracle.
func (b *bench) verify() (int, error) {
	bad := 0
	buf := make([]byte, verifyPiece)
	for i, ref := range b.refs {
		var ok bool
		var err error
		if b.spec.edge {
			ok, err = b.verifyStream(b.streams[i%len(b.streams)], ref, b.oracle[i])
		} else {
			ok, err = b.verifyLocal(ref, b.oracle[i], buf)
		}
		if err != nil {
			return bad, fmt.Errorf("verify object %d: %w", i, err)
		}
		if !ok {
			bad++
		}
	}
	return bad, nil
}

func (b *bench) verifyLocal(ref postlob.ObjectRef, want, buf []byte) (bool, error) {
	tx := b.db.Begin()
	defer tx.Abort()
	obj, err := b.db.LargeObjects().Open(tx, ref)
	if err != nil {
		return false, err
	}
	defer obj.Close()
	size, err := obj.Size()
	if err != nil {
		return false, err
	}
	if size != int64(len(want)) {
		return false, nil
	}
	for off := 0; off < len(want); off += len(buf) {
		piece := buf[:min(len(buf), len(want)-off)]
		if _, err := io.ReadFull(obj, piece); err != nil {
			return false, err
		}
		if !bytes.Equal(piece, want[off:off+len(piece)]) {
			return false, nil
		}
	}
	return true, nil
}

func (b *bench) verifyStream(s *client.Stream, ref postlob.ObjectRef, want []byte) (bool, error) {
	h, err := s.OpenAsOf(b.asOf, ref)
	if err != nil {
		return false, err
	}
	defer h.Close()
	cw := compareWriter{want: want}
	n, err := h.ReadTo(&cw, 0, -1)
	if err != nil {
		return false, err
	}
	return !cw.differs && n == int64(len(want)), nil
}

// compareWriter checks a streamed object against its expected bytes as the
// pieces arrive.
type compareWriter struct {
	want    []byte
	pos     int
	differs bool
}

func (w *compareWriter) Write(p []byte) (int, error) {
	if w.pos+len(p) > len(w.want) || !bytes.Equal(p, w.want[w.pos:w.pos+len(p)]) {
		w.differs = true
	}
	w.pos += len(p)
	return len(p), nil
}

// edgeWriter keeps the first and last 8 bytes of a stream and its length:
// what the per-op check needs, without holding the object.
type edgeWriter struct {
	first, last [8]byte
	n           int64
}

func (w *edgeWriter) Write(p []byte) (int, error) {
	if w.n < 8 {
		copy(w.first[w.n:], p)
	}
	if len(p) >= 8 {
		copy(w.last[:], p[len(p)-8:])
	} else {
		copy(w.last[:], w.last[len(p):])
		copy(w.last[8-len(p):], p)
	}
	w.n += int64(len(p))
	return len(p), nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// --- clients -----------------------------------------------------------------

// errWrong marks an op whose bytes or count differ from the oracle.
var errWrong = errors.New("result differs from the oracle")

// clientLoop is one closed-loop client: op runs one operation and returns
// the user bytes it moved; done releases what the client holds.
type clientLoop struct {
	op   func() (int64, error)
	done func() error
}

func (b *bench) newClient(id int) (*clientLoop, error) {
	rng := rand.New(rand.NewSource(b.seed*7919 + int64(id) + 1))
	switch {
	case b.spec.edge:
		return b.streamClient(id, rng), nil
	case b.spec.write:
		return b.replaceClient(rng), nil
	case b.spec.opBytes == 0:
		return b.scanClient(rng), nil
	default:
		return b.frameClient(rng)
	}
}

// scanClient reads whole objects round-robin in a seeded order, each in its
// own read transaction.
func (b *bench) scanClient(rng *rand.Rand) *clientLoop {
	order := rng.Perm(len(b.refs))
	buf := make([]byte, b.spec.objBytes)
	next := 0
	store := b.db.LargeObjects()
	op := func() (int64, error) {
		i := order[next%len(order)]
		next++
		tr := b.tr
		root := tr.beginOp()
		defer tr.endOp(root)

		sp := tr.child(spTxnBegin, root)
		tx := b.db.Begin()
		tr.end(sp)

		sp = tr.child(spCoreOpen, root)
		obj, err := store.Open(tx, b.refs[i])
		tr.end(sp)
		if err != nil {
			tx.Abort()
			return 0, err
		}
		sp = tr.child(spCoreRead, root)
		n, rerr := io.ReadFull(obj, buf)
		tr.end(sp)

		sp = tr.child(spCoreClose, root)
		cerr := obj.Close()
		tr.end(sp)

		sp = tr.child(spTxnCommit, root)
		_, terr := tx.Commit()
		tr.end(sp)
		if err := errors.Join(rerr, cerr, terr); err != nil {
			return 0, err
		}
		if !b.oracle.edgesMatch(i, 0, buf[:n]) {
			return 0, errWrong
		}
		return int64(n), nil
	}
	return &clientLoop{op: op, done: func() error { return nil }}
}

// frameClient reads 4,096-byte frames at uniformly random frame offsets
// through handles opened once, in one read transaction.
func (b *bench) frameClient(rng *rand.Rand) (*clientLoop, error) {
	tr := b.tr
	sp := tr.begin(spTxnBegin, -1, -1)
	tx := b.db.Begin()
	tr.end(sp)
	objs := make([]postlob.Object, len(b.refs))
	for i, ref := range b.refs {
		sp := tr.begin(spCoreOpen, -1, -1)
		obj, err := b.db.LargeObjects().Open(tx, ref)
		tr.end(sp)
		if err != nil {
			tx.Abort()
			return nil, err
		}
		objs[i] = obj
	}
	frames := b.spec.objBytes / frameBytes
	buf := make([]byte, frameBytes)
	op := func() (int64, error) {
		i := rng.Intn(len(objs))
		off := int64(rng.Intn(frames)) * frameBytes
		tr := b.tr
		root := tr.beginOp()
		defer tr.endOp(root)
		sp := tr.child(spCoreRead, root)
		_, err := objs[i].Seek(off, io.SeekStart)
		var n int
		if err == nil {
			n, err = io.ReadFull(objs[i], buf)
		}
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		if !b.oracle.edgesMatch(i, off, buf[:n]) {
			return 0, errWrong
		}
		return int64(n), nil
	}
	done := func() error {
		var first error
		for _, obj := range objs {
			sp := b.tr.begin(spCoreClose, -1, -1)
			if err := obj.Close(); err != nil && first == nil {
				first = err
			}
			b.tr.end(sp)
		}
		sp := b.tr.begin(spTxnCommit, -1, -1)
		if _, err := tx.Commit(); err != nil && first == nil {
			first = err
		}
		b.tr.end(sp)
		return first
	}
	return &clientLoop{op: op, done: done}, nil
}

// replaceClient overwrites 128 KiB at a random aligned offset of a random
// object, one transaction per op, and checkpoints every checkpointEvery
// commits; the checkpoint's time belongs to the op that issued it. The oracle
// is updated once the commit is acknowledged.
func (b *bench) replaceClient(rng *rand.Rand) *clientLoop {
	payloads := make([][]byte, replacements)
	for i := range payloads {
		payloads[i] = compress.GenFrame(b.seed*1_000_003+int64(1<<20+i), replaceBytes, 0)
	}
	slots := b.spec.objBytes / replaceBytes
	store := b.db.LargeObjects()
	var commits uint64
	op := func() (int64, error) {
		i := rng.Intn(len(b.refs))
		off := int64(rng.Intn(slots)) * replaceBytes
		data := payloads[rng.Intn(len(payloads))]
		// Stamp both edges with the commit number, so no two overwrites of a
		// slot carry the same bytes.
		binary.LittleEndian.PutUint64(data, commits)
		binary.LittleEndian.PutUint64(data[len(data)-8:], commits)

		tr := b.tr
		root := tr.beginOp()
		defer tr.endOp(root)

		sp := tr.child(spTxnBegin, root)
		tx := b.db.Begin()
		tr.end(sp)

		sp = tr.child(spCoreOpen, root)
		obj, err := store.Open(tx, b.refs[i])
		tr.end(sp)
		if err != nil {
			tx.Abort()
			return 0, err
		}
		sp = tr.child(spCoreWrite, root)
		_, err = obj.Seek(off, io.SeekStart)
		var n int
		if err == nil {
			n, err = obj.Write(data)
		}
		tr.end(sp)

		sp = tr.child(spCoreClose, root)
		cerr := obj.Close()
		tr.end(sp)
		if err := errors.Join(err, cerr); err != nil {
			tx.Abort()
			return 0, err
		}
		sp = tr.child(spTxnCommit, root)
		_, err = tx.Commit()
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		copy(b.oracle[i][off:], data)
		commits++
		if commits%checkpointEvery == 0 {
			sp = tr.child(spCoreCheckpoint, root)
			err = b.db.Checkpoint()
			tr.end(sp)
			if err != nil {
				return 0, err
			}
		}
		if n != len(data) {
			return 0, errWrong
		}
		return int64(n), nil
	}
	return &clientLoop{op: op, done: func() error { return nil }}
}

// streamClient reads whole objects over its own v2 stream connection; the
// server ships stored compressed extents and the client decodes them.
func (b *bench) streamClient(id int, rng *rand.Rand) *clientLoop {
	s := b.streams[id]
	order := rng.Perm(len(b.refs))
	next := 0
	op := func() (int64, error) {
		i := order[next%len(order)]
		next++
		tr := b.tr
		root := tr.beginOp()
		defer tr.endOp(root)

		sp := tr.child(spClientOpen, root)
		h, err := s.OpenAsOf(b.asOf, b.refs[i])
		tr.end(sp)
		if err != nil {
			return 0, err
		}
		var w edgeWriter
		sp = tr.child(spClientRead, root)
		n, rerr := h.ReadTo(&w, 0, -1)
		tr.end(sp)

		sp = tr.child(spClientClose, root)
		cerr := h.Close()
		tr.end(sp)
		if err := errors.Join(rerr, cerr); err != nil {
			return 0, err
		}
		want := b.oracle[i]
		if n != int64(len(want)) || w.n != n ||
			!bytes.Equal(w.first[:], want[:8]) || !bytes.Equal(w.last[:], want[len(want)-8:]) {
			return 0, errWrong
		}
		return n, nil
	}
	return &clientLoop{op: op, done: func() error { return nil }}
}
