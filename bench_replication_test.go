package postlob

// TestReplicationReport measures what WAL-shipping replication buys on the
// read side: aggregate snapshot-read throughput at 0, 1, and 2 read
// replicas, with every node serving a fixed fan-in of client sessions over
// its own latency-wrapped device. Replicas serve reads entirely from their
// replayed local pools — the repl.replica_reads counter must account for
// every replica-served open, and repl.proxied_reads (a counter no code path
// increments, because no proxy path exists) must stay zero.
//
// The report only runs when BENCH=1 is set:
//
//	BENCH=1 go test -run TestReplicationReport -v .
//	BENCH=1 ./check.sh
//
// Results are written to BENCH_replication.json at the repo root. The
// acceptance bar: aggregate throughput at 2 replicas must reach at least
// replScalingBar times the primary-alone rate.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"postlob/internal/client"
	"postlob/internal/storage"
)

const (
	// replScalingBar gates aggregate throughput at 2 replicas over 0.
	replScalingBar = 1.7
	// replBenchObjects is the seeded working set (f-chunk objects).
	replBenchObjects = 64
	// replBenchObjBytes sizes each object (two f-chunks, read in full).
	replBenchObjBytes = 16000
	// replBenchReadLat is the simulated per-block device read latency each
	// node's storage charges on a pool miss. It is the per-node capacity
	// bound that makes scale-out visible: reads are device-bound, not
	// CPU-bound, so added replicas add serving capacity.
	replBenchReadLat = time.Millisecond
	// replBenchClients is the client fan-in per node — the fixed per-node
	// offered concurrency.
	replBenchClients = 3
	// replBenchPoolPages keeps each node's pool well under the working set
	// so random reads actually hit the device.
	replBenchPoolPages = 64
	// replBenchPhase is the measured wall-clock window per replica count.
	replBenchPhase = 1200 * time.Millisecond
	// replBenchWriteEvery paces the primary-side writer that keeps the WAL
	// stream (and the lag histogram) live during every measured phase: one
	// committed overwrite per tick, the same fixed load at every replica
	// count so phases stay comparable.
	replBenchWriteEvery = 20 * time.Millisecond
)

// replBenchPayload is the deterministic content of object i.
func replBenchPayload(i int) []byte {
	b := bytes.Repeat([]byte{byte(i), byte(i >> 8), 0x5a, 0xa5}, replBenchObjBytes/4)
	return b
}

// replBenchNode is one serving node: a database plus its gateway's
// stream listener address.
type replBenchNode struct {
	db   *DB
	addr string
}

// openReplBenchNode opens a node over a latency-wrapped disk and serves it.
func openReplBenchNode(t *testing.T, opts Options) replBenchNode {
	t.Helper()
	opts.BufferPoolPages = replBenchPoolPages
	opts.WrapStorage = func(id storage.ID, mgr storage.Manager) storage.Manager {
		if id != storage.Disk {
			return mgr
		}
		return storage.NewLatencyManager(mgr, replBenchReadLat, 0)
	}
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return replBenchNode{db: db, addr: serveStream(t, db, GatewayOptions{})}
}

// replBenchPhaseRun drives replBenchClients sessions against every node for
// one measured window and returns aggregate ops/sec plus per-node op counts
// (index-aligned with nodes).
func replBenchPhaseRun(t *testing.T, nodes []replBenchNode, refs []ObjectRef, writeRef ObjectRef) (float64, []int64) {
	t.Helper()
	perNode := make([]int64, len(nodes))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var started sync.WaitGroup
	for ni := range nodes {
		for ci := 0; ci < replBenchClients; ci++ {
			wg.Add(1)
			started.Add(1)
			go func(ni, ci int) {
				defer wg.Done()
				c, err := client.DialStream(nodes[ni].addr)
				if err != nil {
					t.Errorf("dial node %d: %v", ni, err)
					started.Done()
					return
				}
				defer c.Close()
				ts, err := c.Now()
				if err != nil {
					t.Errorf("now node %d: %v", ni, err)
					started.Done()
					return
				}
				started.Done()
				// Deterministic per-session object walk; co-prime stride so
				// sessions spread over the working set. One full-object
				// buffer per session: a read is a single raw-extent RPC, so
				// per-op CPU stays small next to the device latency.
				buf := make([]byte, replBenchObjBytes)
				idx := (ni*replBenchClients + ci) % len(refs)
				for {
					select {
					case <-stop:
						return
					default:
					}
					ref := refs[idx]
					idx = (idx + 7) % len(refs)
					obj, err := c.OpenAsOf(ts, ref)
					if err != nil {
						t.Errorf("open on node %d: %v", ni, err)
						return
					}
					n, err := io.ReadFull(obj, buf)
					obj.Close()
					if err != nil {
						t.Errorf("read on node %d: %v", ni, err)
						return
					}
					if n != replBenchObjBytes {
						t.Errorf("read on node %d: %d bytes, want %d", ni, n, replBenchObjBytes)
						return
					}
					atomic.AddInt64(&perNode[ni], 1)
				}
			}(ni, ci)
		}
	}
	// The paced writer: overwrites one object outside the read set so the
	// replication stream carries real traffic while reads are measured.
	wg.Add(1)
	go func() {
		defer wg.Done()
		pdb := nodes[0].db
		tick := time.NewTicker(replBenchWriteEvery)
		defer tick.Stop()
		gen := 0
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			gen++
			tx := pdb.Begin()
			obj, err := pdb.LargeObjects().Open(tx, writeRef)
			if err == nil {
				_, err = obj.Write([]byte(fmt.Sprintf("generation %08d", gen)))
				if cerr := obj.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				tx.Abort()
				t.Errorf("phase writer: %v", err)
				return
			}
			if _, err := tx.Commit(); err != nil {
				t.Errorf("phase writer commit: %v", err)
				return
			}
		}
	}()
	started.Wait()
	begin := time.Now()
	time.Sleep(replBenchPhase)
	close(stop)
	wg.Wait()
	elapsed := time.Since(begin)
	var total int64
	for _, n := range perNode {
		total += n
	}
	return float64(total) / elapsed.Seconds(), perNode
}

func TestReplicationReport(t *testing.T) {
	if os.Getenv("BENCH") != "1" {
		t.Skip("set BENCH=1 to run the replication scale-out harness")
	}

	primary := openReplBenchNode(t, Options{Durability: DurabilityWAL})
	refs := make([]ObjectRef, replBenchObjects)
	tx := primary.db.Begin()
	for i := range refs {
		ref, h, err := primary.db.LargeObjects().Create(tx, CreateOptions{Kind: FChunk})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(replBenchPayload(i)); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	// One object outside the read set for the paced phase writer, so the
	// replication stream stays live during every measured window.
	writeRef, wh, err := primary.db.LargeObjects().Create(tx, CreateOptions{Kind: FChunk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wh.Write([]byte("generation 00000000")); err != nil {
		t.Fatal(err)
	}
	if err := wh.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	throughput := make(map[string]float64, 3)
	var replicaCounted int64
	nodes := []replBenchNode{primary}
	for replicas := 0; replicas <= 2; replicas++ {
		if replicas > 0 {
			r := openReplBenchNode(t, Options{
				ReplicaOf:   primary.addr,
				ReplicaName: fmt.Sprintf("bench-%d", replicas),
			})
			waitCaughtUp(t, primary.db, r.db, 20*time.Second)
			nodes = append(nodes, r)
		}
		before := ObsSnapshot()
		opsPerSec, perNode := replBenchPhaseRun(t, nodes, refs, writeRef)
		after := ObsSnapshot()
		throughput[fmt.Sprint(replicas)] = opsPerSec
		// Every read a replica node served must have been counted as a
		// replica-pool read, and none may have been proxied.
		var onReplicas int64
		for ni := 1; ni < len(perNode); ni++ {
			onReplicas += perNode[ni]
		}
		counted := after.CounterDelta(before, "repl.replica_reads")
		if counted != onReplicas {
			t.Errorf("replicas=%d: repl.replica_reads advanced by %d, but replica nodes served %d reads",
				replicas, counted, onReplicas)
		}
		if proxied := after.Counter("repl.proxied_reads"); proxied != 0 {
			t.Errorf("replicas=%d: repl.proxied_reads = %d, want 0 — a replica forwarded reads to the primary",
				replicas, proxied)
		}
		replicaCounted += counted
		t.Logf("replicas=%d: %.0f ops/sec aggregate (per node %v)", replicas, opsPerSec, perNode)
	}

	scaling := throughput["2"] / throughput["0"]
	if scaling < replScalingBar {
		t.Errorf("aggregate throughput at 2 replicas is %.2fx of primary-alone, below the %.2fx bar",
			scaling, replScalingBar)
	}
	// Byte-lag p99 across the run, from the status-message histogram (one
	// histogram "nanosecond" per byte of durable-minus-applied lag).
	lagP99 := int64(ObsSnapshot().Hist("repl.lag").Quantile(0.99))

	report := struct {
		Benchmark    string             `json:"benchmark"`
		Description  string             `json:"description"`
		Environment  map[string]any     `json:"environment"`
		ScalingBar   float64            `json:"scaling_bar"`
		Throughput   map[string]float64 `json:"ops_per_sec_by_replicas"`
		Scaling2v0   float64            `json:"scaling_2v0"`
		ReplicaReads int64              `json:"replica_reads"`
		ProxiedReads int64              `json:"proxied_reads"`
		LagP99Bytes  int64              `json:"lag_p99_bytes"`
	}{
		Benchmark:   "TestReplicationReport",
		Description: "Aggregate snapshot-read throughput (ops/sec, one op = one full 16000-byte f-chunk object read over the server edge) at 0/1/2 WAL-shipped read replicas. Every node serves a fixed fan-in of client sessions over its own device with a simulated per-block read latency, so reads are device-bound and added replicas add serving capacity. Replicas serve purely from their replayed pools: repl.replica_reads must account for every replica-served open and repl.proxied_reads must stay zero. The build fails if 2-replica aggregate throughput is below scaling_bar times the primary-alone rate.",
		Environment: map[string]any{
			"cpu_count":        runtime.NumCPU(),
			"gomaxprocs":       runtime.GOMAXPROCS(0),
			"go_version":       runtime.Version(),
			"objects":          replBenchObjects,
			"object_bytes":     replBenchObjBytes,
			"read_latency":     replBenchReadLat.String(),
			"clients_per_node": replBenchClients,
			"pool_pages":       replBenchPoolPages,
			"phase_duration":   replBenchPhase.String(),
		},
		ScalingBar:   replScalingBar,
		Throughput:   throughput,
		Scaling2v0:   scaling,
		ReplicaReads: replicaCounted,
		ProxiedReads: ObsSnapshot().Counter("repl.proxied_reads"),
		LagP99Bytes:  lagP99,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_replication.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_replication.json")
}
