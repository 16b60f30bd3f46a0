package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"time"

	"postlob"
	"postlob/internal/btree"
	"postlob/internal/buffer"
	"postlob/internal/compress"
	"postlob/internal/gateway"
	"postlob/internal/heap"
	"postlob/internal/page"
	"postlob/internal/storage"
	"postlob/internal/txn"
	"postlob/internal/wal"
)

// probeResults are direct timings of each layer's exported calls on a side
// stack built at the workload's geometry (its codec, its stored chunk size,
// its chunks per object). Multiplied by the obs counts of the traced window
// they estimate each middle layer's busy time per op.
type probeResults struct {
	pageAddItemNs, pageItemNs, pageChecksumNs float64
	bufferGetHitNs, bufferGetMissUs           float64
	btreeLookupNs, btreeInsertNs              float64
	heapFetchNs, heapInsertNs                 float64
	encodeNsPerKB, decodeNsPerKB, ratio       float64
	walAppendFlushUs                          float64
	frameCodecNsPerKB                         float64
	httpGetMs                                 float64
}

const (
	probeBudget    = 100 * time.Millisecond // per timed loop, outside the unit tests
	probeHeapRows  = 512
	probeMissPool  = 64
	probeMissRel   = 1024
	probeWALRounds = 2000
	probeFrameSize = 64 << 10
	probeHTTPGets  = 7
)

// prober times loops against a per-loop budget.
type prober struct{ budget time.Duration }

// timeLoop calls fn in batches until the budget is spent (or maxIters calls,
// when positive) and returns the mean nanoseconds per call.
func (p prober) timeLoop(maxIters int, fn func(i int) error) (float64, error) {
	const batch = 64
	start := time.Now()
	n := 0
	for {
		for k := 0; k < batch; k++ {
			if err := fn(n); err != nil {
				return 0, err
			}
			n++
		}
		el := time.Since(start)
		if el >= p.budget || (maxIters > 0 && n >= maxIters) {
			return float64(el) / float64(n), nil
		}
	}
}

// run times every layer. chunk is one f-chunk's worth of the workload's own
// object bytes; dir is scratch space inside the data directory.
func (p prober) run(s spec, chunk []byte, dir string) (probeResults, error) {
	var r probeResults
	timeLoop := p.timeLoop
	codec, _ := compress.Lookup(s.codec)
	stored, err := compress.Encode(codec, chunk)
	if err != nil {
		return r, err
	}
	r.ratio = float64(len(stored)) / float64(len(chunk))
	kb := float64(len(chunk)) / 1e3

	// compress: the workload's codec over its own bytes.
	ns, err := timeLoop(0, func(int) error { _, err := compress.Encode(codec, chunk); return err })
	if err != nil {
		return r, err
	}
	r.encodeNsPerKB = ns / kb
	ns, err = timeLoop(0, func(int) error { _, err := compress.Decode(stored); return err })
	if err != nil {
		return r, err
	}
	r.decodeNsPerKB = ns / kb

	// page: a tuple the size of one stored chunk.
	item := make([]byte, min(heap.TupleHeaderSize+8+len(stored), page.MaxItemSize(0)))
	pg := page.New(0)
	initNs, _ := timeLoop(0, func(int) error { pg.Init(0); return nil })
	addNs, err := timeLoop(0, func(int) error { pg.Init(0); _, err := pg.AddItem(item); return err })
	if err != nil {
		return r, err
	}
	r.pageAddItemNs = max(0, addNs-initNs)
	if r.pageItemNs, err = timeLoop(0, func(int) error { _, err := pg.Item(0); return err }); err != nil {
		return r, err
	}
	r.pageChecksumNs, _ = timeLoop(0, func(int) error { pg.SetChecksum(); return nil })

	// heap, btree and buffer hits: a memory-backed stack whose pool holds
	// everything, so only the layer's own code is timed.
	sw := storage.NewSwitch()
	sw.Register(storage.Mem, storage.NewMemManager(storage.DeviceModel{}, nil))
	defer sw.Close()
	hp := &heap.Pool{Buf: buffer.NewPool(4*probeHeapRows, sw, nil), Mgr: txn.NewManager()}
	rel, err := heap.Create(hp, storage.Mem, "probe_heap")
	if err != nil {
		return r, err
	}
	tuple := item[heap.TupleHeaderSize:]
	tx := hp.Mgr.Begin()
	tids := make([]heap.TID, 0, probeHeapRows)
	r.heapInsertNs, err = timeLoop(probeHeapRows, func(int) error {
		tid, err := rel.Insert(tx, tuple)
		tids = append(tids, tid)
		return err
	})
	if err != nil {
		tx.Abort()
		return r, err
	}
	if _, err := tx.Commit(); err != nil {
		return r, err
	}
	rng := rand.New(rand.NewSource(1))
	snap := hp.Mgr.Begin()
	defer snap.Abort()
	r.heapFetchNs, err = timeLoop(0, func(int) error {
		_, err := rel.FetchSnap(snap.Snapshot(), tids[rng.Intn(len(tids))])
		return err
	})
	if err != nil {
		return r, err
	}
	r.bufferGetHitNs, err = timeLoop(0, func(int) error {
		f, err := hp.Buf.Get(buffer.Tag{SM: storage.Mem, Rel: "probe_heap", Blk: tids[rng.Intn(len(tids))].Blk})
		if err == nil {
			f.Release()
		}
		return err
	})
	if err != nil {
		return r, err
	}

	// btree: as many keys as one of the workload's objects has chunks.
	keys := s.objBytes/fchunkPayload + 1
	tree, err := btree.Create(hp.Buf, storage.Mem, "probe_idx", btree.Config{})
	if err != nil {
		return r, err
	}
	if r.btreeInsertNs, err = timeLoop(keys, func(i int) error { return tree.Insert(uint64(i), uint64(i)) }); err != nil {
		return r, err
	}
	r.btreeLookupNs, err = timeLoop(0, func(int) error {
		_, _, _, err := tree.Floor(uint64(rng.Intn(keys)))
		return err
	})
	if err != nil {
		return r, err
	}

	// buffer misses: a pool a sixteenth of its relation, read in block order,
	// so every Get evicts a frame and reads a block from the manager.
	missSw := storage.NewSwitch()
	mem := storage.NewMemManager(storage.DeviceModel{}, nil)
	missSw.Register(storage.Mem, mem)
	defer missSw.Close()
	if err := mem.Create("probe_miss"); err != nil {
		return r, err
	}
	for blk := 0; blk < probeMissRel; blk++ {
		if err := mem.WriteBlock("probe_miss", storage.BlockNum(blk), pg); err != nil {
			return r, err
		}
	}
	missPool := buffer.NewPool(probeMissPool, missSw, nil)
	ns, err = timeLoop(0, func(i int) error {
		f, err := missPool.Get(buffer.Tag{SM: storage.Mem, Rel: "probe_miss", Blk: storage.BlockNum(i % probeMissRel)})
		if err == nil {
			f.Release()
		}
		return err
	})
	if err != nil {
		return r, err
	}
	r.bufferGetMissUs = ns / 1e3

	// wal: one page image, its commit record and the group flush.
	wlog, err := wal.Open(storage.NewMemManager(storage.DeviceModel{}, nil), wal.Config{})
	if err != nil {
		return r, err
	}
	ns, err = timeLoop(probeWALRounds, func(i int) error {
		xid := uint32(i + 3)
		if _, err := wlog.AppendPageImage(storage.Mem, "probe_heap", storage.BlockNum(i%probeHeapRows), pg, xid); err != nil {
			return err
		}
		lsn, err := wlog.AppendCommit(xid, int64(i+1))
		if err != nil {
			return err
		}
		return wlog.Flush(lsn)
	})
	if cerr := wlog.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return r, err
	}
	r.walAppendFlushUs = ns / 1e3

	if !s.edge {
		return r, nil
	}
	// gateway: encode and decode one default-size chunk frame, and GET one
	// object over HTTP.
	payload := bytes.Repeat(chunk, probeFrameSize/len(chunk)+1)[:probeFrameSize]
	var wire []byte
	ns, err = timeLoop(0, func(int) error {
		var err error
		wire, err = gateway.AppendFrame(wire[:0], &gateway.Frame{Kind: gateway.KindData, Stream: 1, Payload: payload})
		if err != nil {
			return err
		}
		_, _, err = gateway.DecodeFrame(wire)
		return err
	})
	if err != nil {
		return r, err
	}
	r.frameCodecNsPerKB = ns / (probeFrameSize / 1e3)
	r.httpGetMs, err = probeHTTPGet(filepath.Join(dir, "probe_http"), chunk)
	return r, err
}

// probeHTTPGet times GETs of a 1 MiB object through the gateway's HTTP
// handler on a database of its own, with no socket in between, and returns
// the median in milliseconds.
func probeHTTPGet(dir string, chunk []byte) (float64, error) {
	db, err := postlob.Open(dir, postlob.Options{})
	if err != nil {
		return 0, err
	}
	defer db.Close()
	gw := db.NewGateway(postlob.GatewayOptions{})
	defer gw.Close()
	h := gw.HTTPHandler()
	body := bytes.Repeat(chunk, (1<<20)/len(chunk)+1)[:1<<20]

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/bench/object", bytes.NewReader(body)))
	if rec.Code != http.StatusCreated {
		return 0, fmt.Errorf("http probe: PUT returned %d: %s", rec.Code, rec.Body.String())
	}
	times := make([]float64, probeHTTPGets)
	for i := range times {
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/bench/object", nil))
		times[i] = float64(time.Since(start)) / 1e6
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), body) {
			return 0, fmt.Errorf("http probe: GET returned %d with %d bytes", rec.Code, rec.Body.Len())
		}
	}
	sort.Float64s(times)
	return times[len(times)/2], nil
}
