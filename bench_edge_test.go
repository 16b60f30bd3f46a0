package postlob

// TestEdgeThroughputReport measures what depth-wise chunk read-ahead buys
// the streaming edge: aggregate read throughput and per-op latency at 1, 8,
// and 64 concurrent clients, over a device with simulated per-block read
// latency. The baseline is a second gateway with Depth 1, which fetches one
// chunk at a time, so each read pays the device latency serially across the
// object. The measured gateway fetches edgeBenchDepth chunks ahead under
// the same credit window, so device access overlaps the wire. Both keep
// server memory O(chunk-window).
//
// The report only runs when BENCH=1 is set:
//
//	BENCH=1 go test -run TestEdgeThroughputReport -v .
//	BENCH=1 ./check.sh
//
// Results are written to BENCH_edge_throughput.json at the repo root. The
// acceptance bars: read-ahead must reach edgeBenchBar times the depth-1
// throughput at 8 clients, and its p99 must stay within edgeBenchP99Bar
// times its median there (no stall collapse under pipelining).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"postlob/internal/client"
	"postlob/internal/compress"
	"postlob/internal/storage"
)

const (
	// edgeBenchBar gates read-ahead over depth-1 throughput at 8 clients.
	edgeBenchBar = 2.0
	// edgeBenchP99Bar gates read-ahead p99 over its own median at 8 clients.
	edgeBenchP99Bar = 5.0
	// edgeBenchObjBytes sizes each object (128 f-chunk blocks).
	edgeBenchObjBytes = 1 << 20
	// edgeBenchObjects is the seeded working set.
	edgeBenchObjects = 48
	// edgeBenchReadLat is the simulated per-block device read latency. It
	// is what makes the two depths differ: depth 1 pays it serially across
	// the whole object, read-ahead overlaps it depth-wide.
	edgeBenchReadLat = 200 * time.Microsecond
	// edgeBenchPoolPages keeps the pool far under the working set so reads
	// actually hit the device, while leaving room for the transient pins of
	// 64 clients x depth concurrent chunk fetches.
	edgeBenchPoolPages = 1024
	// edgeBenchDepth/Window/Chunk configure the measured streaming core.
	edgeBenchDepth  = 4
	edgeBenchWindow = 8
	edgeBenchChunk  = 64 << 10
	// edgeBenchPhase is the measured window per (edge, clients) cell.
	edgeBenchPhase = 1500 * time.Millisecond
)

// edgeBenchCell is one measured (edge, clients) combination.
type edgeBenchCell struct {
	Edge     string  `json:"edge"`
	Clients  int     `json:"clients"`
	Ops      int64   `json:"ops"`
	MBPerSec float64 `json:"mb_per_sec"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// edgeBenchRun drives `clients` workers of one edge for the measured
// window. op reads one whole object and returns its byte count.
func edgeBenchRun(t *testing.T, clients int, mkWorker func(t *testing.T) func() (int64, error)) edgeBenchCell {
	t.Helper()
	stop := make(chan struct{})
	var mu sync.Mutex
	var lats []time.Duration
	var ops, bytesRead int64
	var wg sync.WaitGroup
	var started sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			op := mkWorker(t)
			started.Done()
			if op == nil {
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				begin := time.Now()
				n, err := op()
				if err != nil {
					t.Errorf("op: %v", err)
					return
				}
				d := time.Since(begin)
				mu.Lock()
				lats = append(lats, d)
				ops++
				bytesRead += n
				mu.Unlock()
			}
		}()
	}
	started.Wait()
	begin := time.Now()
	time.Sleep(edgeBenchPhase)
	close(stop)
	wg.Wait()
	elapsed := time.Since(begin)

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(p * float64(len(lats)-1))
		return float64(lats[i].Microseconds()) / 1000
	}
	return edgeBenchCell{
		Clients:  clients,
		Ops:      ops,
		MBPerSec: float64(bytesRead) / (1 << 20) / elapsed.Seconds(),
		P50Ms:    q(0.50),
		P99Ms:    q(0.99),
	}
}

func TestEdgeThroughputReport(t *testing.T) {
	if os.Getenv("BENCH") != "1" {
		t.Skip("set BENCH=1 to run the edge throughput harness")
	}

	db, err := Open(t.TempDir(), Options{
		BufferPoolPages: edgeBenchPoolPages,
		WrapStorage: func(id storage.ID, mgr storage.Manager) storage.Manager {
			if id != storage.Disk {
				return mgr
			}
			return storage.NewLatencyManager(mgr, edgeBenchReadLat, 0)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A cleanup, not a defer: the gateways and clients below close first.
	t.Cleanup(func() { db.Close() })

	// Seed the working set: incompressible f-chunk objects so wire bytes
	// equal logical bytes.
	refs := make([]ObjectRef, edgeBenchObjects)
	tx := db.Begin()
	for i := range refs {
		ref, h, err := db.LargeObjects().Create(tx, CreateOptions{Kind: FChunk})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(compress.GenFrame(int64(i), edgeBenchObjBytes, 0.0)); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ts := db.Now()

	// Two gateways over the same store and device, differing only in depth.
	serve := func(depth int) string {
		return serveStream(t, db, GatewayOptions{Chunk: edgeBenchChunk, Window: edgeBenchWindow, Depth: depth})
	}
	edges := []struct {
		name string
		addr string
	}{
		{"depth-1", serve(1)},
		{fmt.Sprintf("depth-%d", edgeBenchDepth), serve(edgeBenchDepth)},
	}

	var idxMu sync.Mutex
	nextIdx := 0
	takeIdx := func() int {
		idxMu.Lock()
		defer idxMu.Unlock()
		nextIdx++
		return nextIdx
	}

	worker := func(addr string) func(t *testing.T) func() (int64, error) {
		return func(t *testing.T) func() (int64, error) {
			s, err := client.DialStream(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return nil
			}
			t.Cleanup(func() { s.Close() })
			idx := takeIdx() * 7
			return func() (int64, error) {
				h, err := s.OpenAsOf(ts, refs[idx%len(refs)])
				if err != nil {
					return 0, err
				}
				idx++
				n, err := h.ReadTo(io.Discard, 0, -1)
				h.Close()
				if err != nil {
					return 0, err
				}
				return n, nil
			}
		}
	}

	cells := make([]edgeBenchCell, 0, 6)
	byKey := make(map[string]edgeBenchCell, 6)
	for _, clients := range []int{1, 8, 64} {
		for _, e := range edges {
			cell := edgeBenchRun(t, clients, worker(e.addr))
			cell.Edge = e.name
			cells = append(cells, cell)
			byKey[fmt.Sprintf("%s/%d", e.name, clients)] = cell
			t.Logf("%s clients=%d: %.1f MB/s, %d ops, p50=%.1fms p99=%.1fms",
				e.name, clients, cell.MBPerSec, cell.Ops, cell.P50Ms, cell.P99Ms)
		}
	}

	base8 := byKey[fmt.Sprintf("%s/8", edges[0].name)]
	deep8 := byKey[fmt.Sprintf("%s/8", edges[1].name)]
	speedup := deep8.MBPerSec / base8.MBPerSec
	if speedup < edgeBenchBar {
		t.Errorf("depth-%d streaming at 8 clients is %.2fx of depth-1 (%.1f vs %.1f MB/s), below the %.1fx bar",
			edgeBenchDepth, speedup, deep8.MBPerSec, base8.MBPerSec, edgeBenchBar)
	}
	if deep8.P50Ms > 0 && deep8.P99Ms > edgeBenchP99Bar*deep8.P50Ms {
		t.Errorf("depth-%d p99 at 8 clients is %.1fms against a %.1fms median — over the %.1fx stall bar",
			edgeBenchDepth, deep8.P99Ms, deep8.P50Ms, edgeBenchP99Bar)
	}

	report := struct {
		Benchmark   string          `json:"benchmark"`
		Description string          `json:"description"`
		Environment map[string]any  `json:"environment"`
		SpeedupBar  float64         `json:"speedup_bar"`
		P99Bar      float64         `json:"p99_over_p50_bar"`
		Cells       []edgeBenchCell `json:"cells"`
		Speedup8    float64         `json:"depth_over_depth1_at_8_clients"`
	}{
		Benchmark:   "TestEdgeThroughputReport",
		Description: "Aggregate full-object read throughput (one op = one 1 MiB incompressible f-chunk object over the stream protocol) for a depth-1 gateway, which fetches one chunk at a time, vs a gateway with depth-wise chunk read-ahead, at 1/8/64 concurrent clients. The device charges a simulated per-block read latency, so depth 1 pays it serially across each object while read-ahead overlaps device and wire. The build fails if read-ahead is below speedup_bar times depth 1 at 8 clients, or if its p99 exceeds p99_over_p50_bar times its median there.",
		Environment: map[string]any{
			"cpu_count":    runtime.NumCPU(),
			"gomaxprocs":   runtime.GOMAXPROCS(0),
			"go_version":   runtime.Version(),
			"objects":      edgeBenchObjects,
			"object_bytes": edgeBenchObjBytes,
			"read_latency": edgeBenchReadLat.String(),
			"pool_pages":   edgeBenchPoolPages,
			"chunk":        edgeBenchChunk,
			"window":       edgeBenchWindow,
			"depth":        edgeBenchDepth,
			"phase":        edgeBenchPhase.String(),
		},
		SpeedupBar: edgeBenchBar,
		P99Bar:     edgeBenchP99Bar,
		Cells:      cells,
		Speedup8:   speedup,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_edge_throughput.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_edge_throughput.json")
}
