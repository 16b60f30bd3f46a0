package postlob

// BenchmarkCommitLatency and TestCommitLatencyReport measure what the WAL
// tentpole buys: per-commit latency for 1, 8, and 64 concurrent committers
// under write-ahead logging (group commit) versus force-at-commit (every
// commit flushes and syncs all dirty pages — the POSTGRES no-WAL
// discipline), on a simulated device charging 200µs per durable sync.
// Block writes land in the OS page cache and are treated as free; the
// device round trip is paid when a sync forces them out — the cost profile
// of the paper's magnetic disks, and exactly the cost group commit exists
// to amortise.
//
// Force-at-commit — Commit followed by Checkpoint, in checkpoint-grained
// mode — pays one sync per touched relation and one of the commit log on
// every commit, and serialises committers behind the checkpoint. WAL mode appends page images
// and a commit record, and the group-commit flusher batches every committer
// parked during one fsync into a single sync of the log segment — so
// per-commit latency falls as concurrency rises. The harness records the
// batching factor (transactions retired per fsync) straight from the wal.*
// metrics.
//
// The report only runs when BENCH=1 is set:
//
//	BENCH=1 go test -run TestCommitLatencyReport -v .
//	BENCH=1 ./check.sh
//
// Results are written to BENCH_commit_latency.json at the repo root. The
// acceptance bar: WAL must beat force-at-commit by at least 2x at 8
// concurrent committers.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"postlob/internal/obs"
	"postlob/internal/storage"
)

// commitLatSyncLat is the simulated device's per-sync latency: the round
// trip a durable flush costs. Buffered block writes are free (page cache).
const commitLatSyncLat = 200 * time.Microsecond

// commitLatPayload is the bytes each transaction writes before committing —
// small, so commit cost (not data volume) dominates.
const commitLatPayload = 256

// commitLatSpeedupBar: WAL must beat force-at-commit by this factor at the
// 8-committer point.
const commitLatSpeedupBar = 2.0

// newCommitLatencyDB opens a database with the magnetic disk behind a
// 200µs-per-sync latency shim — under WAL durability, or checkpoint-grained
// for force-at-commit — and creates one committed f-chunk object per
// committer so the benchmark transactions never contend on a single object.
func newCommitLatencyDB(tb testing.TB, force bool, committers int) (*DB, []ObjectRef) {
	tb.Helper()
	mode := DurabilityWAL
	if force {
		mode = DurabilityCheckpoint
	}
	wrap := func(id storage.ID, mgr storage.Manager) storage.Manager {
		if id == storage.Disk {
			return storage.NewLatencyManagerWithSync(mgr, 0, 0, commitLatSyncLat)
		}
		return mgr
	}
	db, err := Open(tb.TempDir(), Options{
		Durability:      mode,
		WrapStorage:     wrap,
		BufferPoolPages: 512,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := db.Close(); err != nil {
			tb.Errorf("close: %v", err)
		}
	})
	refs := make([]ObjectRef, committers)
	tx := db.Begin()
	for i := range refs {
		ref, h, err := db.LargeObjects().Create(tx, CreateOptions{Kind: FChunk})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := h.Write(make([]byte, 4096)); err != nil {
			tb.Fatal(err)
		}
		if err := h.Close(); err != nil {
			tb.Fatal(err)
		}
		refs[i] = ref
	}
	if _, err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	return db, refs
}

// runCommitLatency splits b.N commits across the committer goroutines; each
// transaction overwrites a small range of its own object and commits, and
// with force a checkpoint follows each commit. NsPerOp is therefore the
// observed per-commit latency at that concurrency.
func runCommitLatency(b *testing.B, db *DB, refs []ObjectRef, force bool) {
	g := len(refs)
	payload := make([]byte, commitLatPayload)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		n := b.N / g
		if w < b.N%g {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				tx := db.Begin()
				h, err := db.LargeObjects().Open(tx, refs[w])
				if err != nil {
					b.Errorf("open: %v", err)
					tx.Abort()
					return
				}
				if _, err := h.Seek(int64((i%8)*512), io.SeekStart); err != nil {
					b.Errorf("seek: %v", err)
				}
				if _, err := h.Write(payload); err != nil {
					b.Errorf("write: %v", err)
				}
				if err := h.Close(); err != nil {
					b.Errorf("close: %v", err)
				}
				if _, err := tx.Commit(); err != nil {
					b.Errorf("commit: %v", err)
					return
				}
				if force {
					if err := db.Checkpoint(); err != nil {
						b.Errorf("checkpoint: %v", err)
						return
					}
				}
			}
		}(w, n)
	}
	wg.Wait()
	b.StopTimer()
}

func commitLatencyModeName(force bool) string {
	if force {
		return "force"
	}
	return "wal"
}

// BenchmarkCommitLatency is the runnable family: ns/op is per-commit latency
// at the named concurrency and durability mode.
func BenchmarkCommitLatency(b *testing.B) {
	for _, force := range []bool{false, true} {
		for _, g := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("mode=%s/committers=%d", commitLatencyModeName(force), g), func(b *testing.B) {
				db, refs := newCommitLatencyDB(b, force, g)
				runCommitLatency(b, db, refs, force)
			})
		}
	}
}

type commitLatencyResult struct {
	WALNsPerCommit   int64   `json:"wal_ns_per_commit"`
	ForceNsPerCommit int64   `json:"force_ns_per_commit"`
	Speedup          float64 `json:"speedup"`
	// BatchingFactor is committed transactions per WAL fsync during the WAL
	// run — the group-commit amortisation the speedup comes from.
	BatchingFactor float64 `json:"group_commit_batching_factor"`
}

func TestCommitLatencyReport(t *testing.T) {
	if os.Getenv("BENCH") == "" {
		t.Skip("set BENCH=1 to run the commit latency harness")
	}

	results := make(map[string]commitLatencyResult)
	for _, g := range []int{1, 8, 64} {
		g := g
		bench := func(force bool) (int64, float64) {
			before := obs.Snapshot()
			res := testing.Benchmark(func(b *testing.B) {
				db, refs := newCommitLatencyDB(b, force, g)
				runCommitLatency(b, db, refs, force)
			})
			if res.N == 0 {
				t.Fatalf("committers=%d mode=%s: no iterations", g, commitLatencyModeName(force))
			}
			after := obs.Snapshot()
			batching := 0.0
			if fsyncs := after.CounterDelta(before, "wal.fsyncs"); fsyncs > 0 {
				batching = float64(after.CounterDelta(before, "wal.group_commit_txns")) / float64(fsyncs)
			}
			return res.NsPerOp(), batching
		}
		walNs, batching := bench(false)
		forceNs, _ := bench(true)
		speedup := float64(forceNs) / float64(walNs)
		results[fmt.Sprintf("committers=%d", g)] = commitLatencyResult{
			WALNsPerCommit:   walNs,
			ForceNsPerCommit: forceNs,
			Speedup:          round2(speedup),
			BatchingFactor:   round2(batching),
		}
		t.Logf("committers=%d: wal %d ns/commit, force %d ns/commit, speedup %.2fx, batching %.2f txns/fsync",
			g, walNs, forceNs, speedup, batching)
		if g == 8 && speedup < commitLatSpeedupBar {
			t.Errorf("committers=8: WAL speedup %.2fx below the %.1fx bar", speedup, commitLatSpeedupBar)
		}
	}

	report := struct {
		Benchmark   string                         `json:"benchmark"`
		Description string                         `json:"description"`
		Environment map[string]any                 `json:"environment"`
		SpeedupBar  float64                        `json:"speedup_bar_at_8"`
		Workloads   map[string]commitLatencyResult `json:"workloads"`
	}{
		Benchmark:   "TestCommitLatencyReport",
		Description: "Per-commit latency for concurrent committers: write-ahead logging with group commit vs force-at-commit (a checkpoint after every commit: flush + sync everything, then the commit log), each transaction overwriting 256 bytes of its own f-chunk object on a disk charging 200us per durable sync (buffered block writes are page-cache free). Speedup is force/wal ns-per-commit; group_commit_batching_factor is committed transactions per WAL fsync during the WAL run. The build fails unless WAL wins by speedup_bar_at_8 at 8 committers.",
		Environment: map[string]any{
			"cpu_count":       runtime.NumCPU(),
			"gomaxprocs":      runtime.GOMAXPROCS(0),
			"go_version":      runtime.Version(),
			"sync_latency_us": commitLatSyncLat.Microseconds(),
			"payload_bytes":   commitLatPayload,
			"pool_pages":      512,
		},
		SpeedupBar: commitLatSpeedupBar,
		Workloads:  results,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_commit_latency.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_commit_latency.json")
}
