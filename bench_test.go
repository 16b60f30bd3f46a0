package postlob

// One benchmark per table/figure in the paper's evaluation (§9), plus
// ablation benches for the design choices DESIGN.md calls out. The figure
// benches report the virtual elapsed seconds produced by the era-calibrated
// cost models as custom metrics (vsec_*); wall-clock ns/op measures the
// simulator itself. Run `go run ./cmd/lobjbench` for the full formatted
// tables.

import (
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"postlob/internal/adt"
	"postlob/internal/bench"
	"postlob/internal/client"
	"postlob/internal/compress"
	"postlob/internal/storage"
)

// benchScale keeps `go test -bench` runs quick; use cmd/lobjbench -scale
// for larger geometries.
const benchScale = 0.08

// BenchmarkFigure1Storage regenerates Figure 1: storage used by the various
// large object implementations. Metrics: bytes per implementation.
func BenchmarkFigure1Storage(b *testing.B) {
	w := bench.NewWorkload(benchScale, 1)
	var rows []bench.Figure1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunFigure1(b.TempDir(), w)
		if err != nil {
			b.Fatal(err)
		}
	}
	logical := float64(w.ObjectBytes())
	for _, r := range rows {
		name := r.Impl
		if r.Component != "" {
			name += "_" + r.Component
		}
		b.ReportMetric(float64(r.Bytes)/logical, metricName("ratio", name))
	}
}

// BenchmarkFigure2Disk regenerates Figure 2: the six benchmark operations
// across the six implementations on the disk storage manager. Metrics:
// virtual seconds per cell.
func BenchmarkFigure2Disk(b *testing.B) {
	w := bench.NewWorkload(benchScale, 1)
	var cells map[bench.Op]map[string]time.Duration
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = bench.RunFigure2(b.TempDir(), w)
		if err != nil {
			b.Fatal(err)
		}
	}
	for op, byImpl := range cells {
		for impl, d := range byImpl {
			b.ReportMetric(d.Seconds(), metricName("vsec", fmt.Sprintf("%v|%s", op, impl)))
		}
	}
}

// BenchmarkFigure3Worm regenerates Figure 3: the read operations on the
// WORM storage manager including the raw-device special program.
func BenchmarkFigure3Worm(b *testing.B) {
	w := bench.NewWorkload(benchScale, 1)
	var cells map[bench.Op]map[string]time.Duration
	for i := 0; i < b.N; i++ {
		var err error
		cells, err = bench.RunFigure3(b.TempDir(), w)
		if err != nil {
			b.Fatal(err)
		}
	}
	for op, byImpl := range cells {
		for impl, d := range byImpl {
			b.ReportMetric(d.Seconds(), metricName("vsec", fmt.Sprintf("%v|%s", op, impl)))
		}
	}
}

func metricName(prefix, detail string) string {
	out := make([]rune, 0, len(detail))
	for _, r := range detail {
		switch {
		case r == ' ' || r == ',':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return prefix + ":" + string(out)
}

// --- micro-benchmarks on the real implementations (wall-clock) -----------------

func newBenchDB(b *testing.B) *DB {
	b.Helper()
	db, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func benchObject(b *testing.B, db *DB, kind StorageKind, codec string, size int) (ObjectRef, *Txn) {
	b.Helper()
	tx := db.Begin()
	ref, obj, err := db.LargeObjects().Create(tx, CreateOptions{Kind: kind, Codec: codec})
	if err != nil {
		b.Fatal(err)
	}
	payload := compress.GenFrame(1, size, 0.3)
	if _, err := obj.Write(payload); err != nil {
		b.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		b.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return ref, db.Begin()
}

func BenchmarkFChunkSequentialRead(b *testing.B) {
	db := newBenchDB(b)
	ref, tx := benchObject(b, db, FChunk, "", 1<<20)
	defer tx.Abort()
	buf := make([]byte, 4096)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj, err := db.LargeObjects().Open(tx, ref)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := obj.Read(buf); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		obj.Close()
	}
}

func BenchmarkFChunkRandomRead(b *testing.B) {
	db := newBenchDB(b)
	ref, tx := benchObject(b, db, FChunk, "", 1<<20)
	defer tx.Abort()
	obj, err := db.LargeObjects().Open(tx, ref)
	if err != nil {
		b.Fatal(err)
	}
	defer obj.Close()
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(rng.Intn(1<<20 - 4096))
		if _, err := obj.Seek(off, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(obj, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVSegmentRandomRead(b *testing.B) {
	db := newBenchDB(b)
	ref, tx := benchObject(b, db, VSegment, "fast", 1<<20)
	defer tx.Abort()
	obj, err := db.LargeObjects().Open(tx, ref)
	if err != nil {
		b.Fatal(err)
	}
	defer obj.Close()
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(rng.Intn(1<<20 - 4096))
		if _, err := obj.Seek(off, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(obj, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFChunkSequentialWrite(b *testing.B) {
	db := newBenchDB(b)
	frame := compress.GenFrame(2, 4096, 0.3)
	b.SetBytes(int64(len(frame)) * 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		_, obj, err := db.LargeObjects().Create(tx, CreateOptions{Kind: FChunk})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 64; j++ {
			if _, err := obj.Write(frame); err != nil {
				b.Fatal(err)
			}
		}
		obj.Close()
		tx.Commit()
	}
}

func BenchmarkInversionWriteReadFile(b *testing.B) {
	db := newBenchDB(b)
	fs, err := db.Inversion(FSOptions{Kind: FChunk, SM: Disk})
	if err != nil {
		b.Fatal(err)
	}
	data := compress.GenFrame(4, 64*1024, 0.3)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/f%d", i)
		if err := db.RunInTxn(func(tx *Txn) error {
			return fs.WriteFile(tx, path, data)
		}); err != nil {
			b.Fatal(err)
		}
		tx := db.Begin()
		if _, err := fs.ReadFile(tx, path); err != nil {
			b.Fatal(err)
		}
		tx.Abort()
	}
}

func BenchmarkCompressFast(b *testing.B) {
	data := compress.GenFrame(5, 8000, 0.3)
	b.SetBytes(int64(len(data)))
	var c compress.Fast
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := c.Compress(nil, data)
		if _, err := c.Decompress(nil, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressTight(b *testing.B) {
	data := compress.GenFrame(5, 8000, 0.5)
	b.SetBytes(int64(len(data)))
	var c compress.Tight
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := c.Compress(nil, data)
		if _, err := c.Decompress(nil, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteReadWireRatio measures §3's network claim end to end: a
// client streams a 50 %-compressible object from an in-process gateway and
// the benchmark reports wire bytes per logical byte for the just-in-time
// (client-decompress) path vs. the server-side-conversion path.
func BenchmarkRemoteReadWireRatio(b *testing.B) {
	db := newBenchDB(b)
	addr := serveStream(b, db, GatewayOptions{})

	const logical = 1 << 20
	var ref ObjectRef
	if err := db.RunInTxn(func(tx *Txn) error {
		var obj Object
		var err error
		ref, obj, err = db.LargeObjects().Create(tx, CreateOptions{Kind: FChunk, Codec: "tight"})
		if err != nil {
			return err
		}
		obj.Write(compress.GenFrame(7, logical, 0.5))
		return obj.Close()
	}); err != nil {
		b.Fatal(err)
	}

	c, err := client.DialStream(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Begin(); err != nil {
		b.Fatal(err)
	}
	defer c.Abort()
	buf := make([]byte, 64*1024)
	b.SetBytes(logical)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := c.Open(ref)
		if err != nil {
			b.Fatal(err)
		}
		before := c.WireBytesIn()
		for {
			if _, err := h.Read(buf); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		jit := c.WireBytesIn() - before

		h.Seek(0, io.SeekStart)
		before = c.WireBytesIn()
		for {
			if _, err := h.ReadServerSide(buf); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		serverSide := c.WireBytesIn() - before
		h.Close()
		b.ReportMetric(float64(jit)/logical, "wire_ratio:just_in_time")
		b.ReportMetric(float64(serverSide)/logical, "wire_ratio:server_side")
	}
}

// --- ablations -----------------------------------------------------------------

// BenchmarkAblationChunkSize quantifies the byte[8000] choice: random frame
// reads against alternative f-chunk payload sizes.
func BenchmarkAblationChunkSize(b *testing.B) {
	for _, cs := range []int{2000, 4000, 8000} {
		b.Run(fmt.Sprintf("chunk%d", cs), func(b *testing.B) {
			db, err := Open(b.TempDir(), Options{ChunkSize: cs})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			ref, tx := benchObject(b, db, FChunk, "", 1<<20)
			defer tx.Abort()
			obj, err := db.LargeObjects().Open(tx, ref)
			if err != nil {
				b.Fatal(err)
			}
			defer obj.Close()
			rng := rand.New(rand.NewSource(3))
			buf := make([]byte, 4096)
			b.SetBytes(4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := int64(rng.Intn(1<<20 - 4096))
				obj.Seek(off, io.SeekStart)
				if _, err := io.ReadFull(obj, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSegmentWriteSize measures the v-segment unit-of-
// compression trade-off (§6.4): larger writes make fewer, bigger segments.
func BenchmarkAblationSegmentWriteSize(b *testing.B) {
	for _, ws := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("write%d", ws), func(b *testing.B) {
			db := newBenchDB(b)
			chunk := compress.GenFrame(6, ws, 0.3)
			const total = 1 << 20
			b.SetBytes(total)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := db.Begin()
				_, obj, err := db.LargeObjects().Create(tx, CreateOptions{Kind: VSegment, Codec: "fast"})
				if err != nil {
					b.Fatal(err)
				}
				for off := 0; off < total; off += ws {
					if _, err := obj.Write(chunk); err != nil {
						b.Fatal(err)
					}
				}
				obj.Close()
				tx.Commit()
			}
		})
	}
}

// BenchmarkAblationWormCache varies the jukebox's magnetic-disk cache and
// reports the virtual time of the locality read — Figure 3's cache story.
func BenchmarkAblationWormCache(b *testing.B) {
	w := bench.NewWorkload(0.04, 1)
	for _, frac := range []int{0, 4, 2} { // none, 1/4, 1/2 of object pages
		name := "none"
		if frac > 0 {
			name = fmt.Sprintf("1of%d", frac)
		}
		b.Run(name, func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				d, err := wormLocalityRead(b.TempDir(), w, frac)
				if err != nil {
					b.Fatal(err)
				}
				total = d
			}
			b.ReportMetric(total.Seconds(), "vsec")
		})
	}
}

func wormLocalityRead(dir string, w bench.Workload, cacheFrac int) (time.Duration, error) {
	var clock Clock
	cacheBlocks := 0
	if cacheFrac > 0 {
		cacheBlocks = int(w.ObjectBytes()/8192) / cacheFrac
		if cacheBlocks < 16 {
			cacheBlocks = 16
		}
	}
	db, err := Open(dir, Options{
		Clock:           &clock,
		BufferPoolPages: 64,
		WormConfig: &WormConfig{
			Model:       bench.EraWorm(),
			CacheModel:  bench.EraDisk(),
			CacheBlocks: cacheBlocks,
			Clock:       &clock,
		},
		CPU: bench.EraCPU(),
	})
	if err != nil {
		return 0, err
	}
	defer db.Close()
	impl := bench.Impl{Name: "f-chunk", Kind: adt.KindFChunk}
	ref, err := bench.BuildObject(db.LargeObjects(), db.LargeObjects().Pool().Mgr, storage.Worm, impl, w, "")
	if err != nil {
		return 0, err
	}
	tx := db.Begin()
	defer tx.Abort()
	obj, err := db.LargeObjects().Open(tx, ref)
	if err != nil {
		return 0, err
	}
	defer obj.Close()
	return bench.RunOp(obj, impl, bench.LocalRead, w, 0, &clock)
}

// BenchmarkAblationCodecChoice compares the two conversion routines across
// access patterns on the same v-segment object.
func BenchmarkAblationCodecChoice(b *testing.B) {
	for _, codec := range []string{"", "fast", "tight"} {
		name := codec
		if name == "" {
			name = "none"
		}
		b.Run(name, func(b *testing.B) {
			db := newBenchDB(b)
			ref, tx := benchObject(b, db, VSegment, codec, 1<<20)
			defer tx.Abort()
			obj, err := db.LargeObjects().Open(tx, ref)
			if err != nil {
				b.Fatal(err)
			}
			defer obj.Close()
			buf := make([]byte, 4096)
			b.SetBytes(4096)
			rng := rand.New(rand.NewSource(9))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := int64(rng.Intn(1<<20 - 4096))
				obj.Seek(off, io.SeekStart)
				if _, err := io.ReadFull(obj, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
