#!/bin/sh
# check.sh — the tier-1 + lint gate. Everything here must pass before a
# change lands:
#
#   1. go build ./...              the module compiles
#   2. go vet ./...                the standard vet suite
#   3. go run ./cmd/lobvet ./...   the postlob invariant analyzers
#                                  (frame release, txn completion, storage
#                                  errors, lock guards, no stray panics),
#                                  including the interprocedural lockorder
#                                  and blockinlock passes over the whole
#                                  module. Lint wall-time is reported so a
#                                  slow analyzer regression is visible.
#                                  A one-package `go vet -vettool=lobvet`
#                                  smoke run keeps the vet-driver protocol
#                                  path from bitrotting.
#   4. go test -race ./...         the full test suite under the race
#                                  detector — the concurrent read path is
#                                  expected to stay race-clean. This includes
#                                  the concurrent facade soak, which runs
#                                  with the background I/O engine both on
#                                  and off (TestConcurrentFacadeSoak
#                                  subtests), and the randomized
#                                  crash-recovery sweep; CRASH sets the
#                                  sweep width in seeds (default 25):
#
#                                    CRASH=200 ./check.sh
#
#   4b. benchmark module           benchmark/ is a Go module of its own (it
#                                  imports postlob/internal/... through a
#                                  replace directive), so steps 1-4 never
#                                  build it: vet it and run its unit tests
#                                  here, or an internal/ API change breaks
#                                  the repository benchmark silently
#
#   5. BenchmarkConcurrentRead     one-iteration smoke run of the concurrent
#                                  read benchmark, so scaling regressions
#                                  break the build, not just the numbers
#
#   6. BenchmarkScanPrefetch       one-iteration smoke run of the
#                                  sequential scan with the background
#                                  engine's read-ahead active, so the
#                                  prefetch path (post, fill, install) is
#                                  exercised end to end on every run
#
#   6b. BenchmarkFChunkRead        one-iteration smoke run of the f-chunk
#                                  read path (one index descent per object,
#                                  chunks decoded from the pinned page into
#                                  the caller's buffer) with its allocations
#                                  reported: the benchmark's scan_hot op in
#                                  miniature
#
#   6c. BenchmarkFastDecode        one-iteration smoke run of the
#                                  run-at-a-time fast-codec decoder on a
#                                  50 %-compressible 8,000-byte chunk
#
#   6d. BenchmarkBgWriterIdleRound one-iteration smoke run of a background
#                                  writer round over a clean 24,576-page
#                                  pool, allocations reported: an idle
#                                  round must cost one atomic load per
#                                  partition, not a walk of every frame
#
#   6e. examples/remoteaccess      runs the remote-client example end to end:
#                                  a loopback gateway, a stream client, a
#                                  query and a compressed read decoded just
#                                  in time on the client
#
#   6f. compress fuzz smokes       FuzzFastRoundTrip, FuzzDecodeHostileInput
#                                  and FuzzFastDecodeDifferential (the
#                                  fast decoder against the byte-loop
#                                  reference) at -fuzztime 200x
#
#   7. FuzzWALDecode smoke         a short native-fuzz run of the WAL record
#                                  decoder over the checked-in corpus, so a
#                                  framing regression fails fast
#
#   7b. FuzzVersionMetaDecode      same treatment for the on-page tuple
#                                  version header (xmin/xmax stamps, hint
#                                  bits, version-chain back link)
#
#   7c. FuzzReplFrameDecode        same treatment for the replication wire
#                                  envelope (CRC-framed gob frames), so a
#                                  torn or bit-flipped frame always fails
#                                  loudly instead of being applied
#
#   7c2. FuzzChunkFrameDecode      same treatment for the v2 edge protocol's
#                                  chunk frame decoder (length/CRC/kind
#                                  checks): torn or bit-flipped frames must
#                                  error, never misparse
#
#   7c3. FuzzRangeParse            same treatment for the HTTP gateway's
#                                  Range-header parser
#
#   7d. (REPL=1 only)              the widened replication gate: the
#                                  replica-vs-oracle crash sweep at 100
#                                  seeds under the race detector, crashing
#                                  primary and replica alike. REPLSEED=<n>
#                                  reproduces one seed from a failure:
#
#                                    REPL=1 ./check.sh
#
#   7e. (MVCC=1 only)              the widened MVCC gate: the snapshot-
#                                  isolation soak at 24 writers plus a
#                                  100-seed crash-recovery sweep, both under
#                                  the race detector:
#
#                                    MVCC=1 ./check.sh
#
#   7f. (EDGE=1 only)              the widened network-edge gate: the mixed
#                                  TCP-v2 + HTTP soak (primary + read-only
#                                  replica) at 16 clients under the race
#                                  detector, asserting the byte conservation
#                                  law and the O(chunk-window) server
#                                  buffering bound:
#
#                                    EDGE=1 ./check.sh
#
#   8. (BENCH=1 only)              the observability overhead harness: the
#                                  concurrent read workload with metrics
#                                  recording vs obs.Disabled(). Rewrites
#                                  BENCH_obs_overhead.json and fails any
#                                  workload over its budget (5% on the
#                                  200µs-device family, 18% on the
#                                  cpu-bound worst case):
#
#                                    BENCH=1 ./check.sh
#
#   9. (BENCH=1 only)              the async I/O harness: write-heavy
#                                  foreground p99 and dirty-eviction gates
#                                  with the background writer on vs off,
#                                  plus scan-prefetch speedup. Rewrites the
#                                  write_heavy/* and scan/prefetch rows of
#                                  BENCH_concurrent_read.json
#
#  10. (BENCH=1 only)              the commit-latency harness: concurrent
#                                  committers under write-ahead logging vs
#                                  force-at-commit on a 200µs-write device.
#                                  Rewrites BENCH_commit_latency.json and
#                                  fails unless group commit wins at 8-way
#
#  11. (BENCH=1 only)              the edge throughput harness: depth-4
#                                  chunk read-ahead vs a depth-1 gateway
#                                  that fetches one chunk at a time, at
#                                  1/8/64 clients. Rewrites
#                                  BENCH_edge_throughput.json and fails
#                                  unless read-ahead wins 2x at 8 clients
#                                  with bounded p99
#
#  12. (BENCH=1 only)              the replication scale-out harness:
#                                  aggregate snapshot-read throughput at
#                                  0/1/2 WAL-shipped read replicas over
#                                  per-node latency-wrapped devices.
#                                  Rewrites BENCH_replication.json and
#                                  fails unless 2 replicas reach 1.7x the
#                                  primary-alone rate with zero reads
#                                  proxied to the primary
#
# The race detector is on by default. Run with RACE=0 to skip it (plain
# go test ./...) when iterating on something slow:
#
#   RACE=0 ./check.sh
set -e
cd "$(dirname "$0")"

# Width of the randomized crash-recovery seed sweep (TestCrashRecovery).
CRASH="${CRASH:-25}"
export CRASH

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
lint_start=$(date +%s)
go vet ./...

echo "== lobvet ./..."
go run ./cmd/lobvet ./...

echo "== go vet -vettool=lobvet smoke (internal/adt)"
lobvet_bin="$(mktemp -d)/lobvet"
go build -o "$lobvet_bin" ./cmd/lobvet
go vet -vettool="$lobvet_bin" ./internal/adt
rm -rf "$(dirname "$lobvet_bin")"
echo "== lint wall-time: $(($(date +%s) - lint_start))s (vet + lobvet + vettool smoke)"

# BENCH is cleared for the full suite so the (slow) overhead harness runs
# only as its own step below.
if [ "${RACE:-1}" = "0" ]; then
	echo "== go test ./... (race detector skipped: RACE=0)"
	BENCH= go test ./...
else
	echo "== go test -race ./..."
	BENCH= go test -race ./...
fi

echo "== benchmark module (go vet + go test in benchmark/)"
(cd benchmark && go vet ./... && go test ./...)

echo "== BenchmarkConcurrentRead smoke (-benchtime=1x)"
go test -run '^$' -bench BenchmarkConcurrentRead -benchtime=1x .

echo "== BenchmarkScanPrefetch smoke (-benchtime=1x)"
go test -run '^$' -bench BenchmarkScanPrefetch -benchtime=1x .

echo "== BenchmarkFChunkRead smoke (-benchtime=1x)"
go test -run '^$' -bench BenchmarkFChunkRead -benchtime=1x -benchmem ./internal/core

echo "== BenchmarkFastDecode smoke (-benchtime=1x)"
go test -run '^$' -bench '^BenchmarkFastDecode$' -benchtime=1x -benchmem ./internal/compress

echo "== BenchmarkBgWriterIdleRound smoke (-benchtime=1x)"
go test -run '^$' -bench '^BenchmarkBgWriterIdleRound$' -benchtime=1x -benchmem ./internal/buffer

echo "== examples/remoteaccess"
go run ./examples/remoteaccess

for target in FuzzFastRoundTrip FuzzDecodeHostileInput FuzzFastDecodeDifferential; do
	echo "== $target smoke (-fuzztime=200x)"
	go test -run '^$' -fuzz "^$target\$" -fuzztime 200x ./internal/compress
done

echo "== FuzzWALDecode smoke (-fuzztime=200x)"
go test -run '^$' -fuzz '^FuzzWALDecode$' -fuzztime 200x ./internal/wal

echo "== FuzzVersionMetaDecode smoke (-fuzztime=200x)"
go test -run '^$' -fuzz '^FuzzVersionMetaDecode$' -fuzztime 200x ./internal/heap

echo "== FuzzReplFrameDecode smoke (-fuzztime=200x)"
go test -run '^$' -fuzz '^FuzzReplFrameDecode$' -fuzztime 200x ./internal/repl

echo "== FuzzChunkFrameDecode smoke (-fuzztime=200x)"
go test -run '^$' -fuzz '^FuzzChunkFrameDecode$' -fuzztime 200x ./internal/gateway

echo "== FuzzRangeParse smoke (-fuzztime=200x)"
go test -run '^$' -fuzz '^FuzzRangeParse$' -fuzztime 200x ./internal/gateway

if [ "${REPL:-}" = "1" ]; then
	echo "== widened replication crash sweep (REPL=1, 100 seeds, -race)"
	REPLCRASH=100 go test -race -run '^TestReplicationCrashSweep$' -count=1 -timeout 30m .
fi

if [ "${MVCC:-}" = "1" ]; then
	echo "== widened snapshot-isolation soak (MVCC=1, 24 writers, -race)"
	MVCCWRITERS=24 go test -race -run '^TestSnapshotIsolationSoak$' -count=1 -v .
	echo "== widened crash-recovery sweep (MVCC=1, 100 seeds, -race)"
	CRASH=100 go test -race -run '^TestCrashRecovery$' -count=1 ./internal/core
fi

if [ "${EDGE:-}" = "1" ]; then
	echo "== widened network-edge soak (EDGE=1, 16 clients, -race)"
	EDGECLIENTS=16 go test -race -run '^TestEdgeSoak$' -count=1 -v -timeout 30m .
fi

if [ "${BENCH:-}" = "1" ]; then
	echo "== observability overhead harness (BENCH=1)"
	BENCH=1 go test -run '^TestObsOverheadReport$' -v .
	echo "== async I/O harness (BENCH=1)"
	BENCH=1 go test -run '^TestAsyncIOReport$' -v -timeout 20m .
	echo "== commit latency harness (BENCH=1)"
	BENCH=1 go test -run '^TestCommitLatencyReport$' -v -timeout 20m .
	echo "== mixed read/write harness (BENCH=1)"
	BENCH=1 go test -run '^TestMixedRWReport$' -v -timeout 20m .
	echo "== edge throughput harness (BENCH=1)"
	BENCH=1 go test -run '^TestEdgeThroughputReport$' -v -timeout 20m .
	echo "== replication scale-out harness (BENCH=1)"
	BENCH=1 go test -run '^TestReplicationReport$' -v -timeout 20m .
fi

echo "check.sh: all green"
