package main

import "postlob/internal/obs"

// metric is one named number with its unit, as printed.
type metric struct {
	name, unit string
	value      float64
}

// metricDef names a metric and its unit. These two tables are the program's
// side of BENCHMARK.json; a unit test holds them equal to that file.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"throughput_mb_s", "MB/s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"cpu_s_per_gb", "s/GB"},
	{"alloc_b_per_user_b", "B/B"},
	{"space_amp", "ratio"},
	{"write_amp", "ratio"},
}

var perLayerDefs = []metricDef{
	{"core.open_us", "us"},
	{"core.read_us_per_mb", "us/MB"},
	{"core.write_us_per_mb", "us/MB"},
	{"core.close_us", "us"},
	{"core.chunk_loads_per_op", "count"},
	{"core.read_amp", "ratio"},
	{"core.checkpoint_ms", "ms"},
	{"core.vacuum_rounds", "count"},
	{"core.vacuum_reclaimed_per_op", "count"},
	{"btree.descents_per_op", "count"},
	{"btree.lookup_ns", "ns"},
	{"btree.insert_ns", "ns"},
	{"heap.fetches_per_op", "count"},
	{"heap.inserts_per_op", "count"},
	{"heap.fetch_ns", "ns"},
	{"heap.insert_ns", "ns"},
	{"heap.read_latch_waits", "count"},
	{"page.add_item_ns", "ns"},
	{"page.item_ns", "ns"},
	{"page.checksum_ns", "ns"},
	{"buffer.lookups_per_op", "count"},
	{"buffer.hit_ratio", "ratio"},
	{"buffer.evictions_per_op", "count"},
	{"buffer.writebacks_per_op", "count"},
	{"buffer.evict_dirty_foreground", "count"},
	{"buffer.bgwriter_pages_written", "count"},
	{"buffer.prefetch_installed", "count"},
	{"buffer.latch_waits", "count"},
	{"buffer.get_hit_ns", "ns"},
	{"buffer.get_miss_us", "us"},
	{"buffer.miss_read_p50_us", "us"},
	{"storage.reads_per_op", "count"},
	{"storage.read_us", "us"},
	{"storage.read_busy_share", "ratio"},
	{"storage.writes_per_op", "count"},
	{"storage.write_b_per_user_b", "B/B"},
	{"storage.batch_blocks_mean", "count"},
	{"storage.syncs_per_op", "count"},
	{"storage.sync_ms", "ms"},
	{"wal.appends_per_commit", "count"},
	{"wal.page_images_per_commit", "count"},
	{"wal.append_b_per_user_b", "B/B"},
	{"wal.fsyncs_per_commit", "count"},
	{"wal.group_size_mean", "count"},
	{"wal.flush_p50_ms", "ms"},
	{"wal.append_flush_us", "us"},
	{"wal.truncated_b", "B"},
	{"txn.begin_us", "us"},
	{"txn.commit_ms", "ms"},
	{"txn.commits", "count"},
	{"txn.aborts", "count"},
	{"compress.encode_ns_per_kb", "ns/KB"},
	{"compress.decode_ns_per_kb", "ns/KB"},
	{"compress.ratio", "ratio"},
	{"gateway.chunks_out_per_op", "count"},
	{"gateway.bytes_out_per_user_b", "B/B"},
	{"gateway.chunk_buffer_hwm_b", "B"},
	{"gateway.rpc_read_p50_ms", "ms"},
	{"gateway.frame_codec_ns_per_kb", "ns/KB"},
	{"gateway.http_get_ms", "ms"},
	{"client.open_ms", "ms"},
	{"client.read_ms", "ms"},
	{"client.close_ms", "ms"},
	{"client.wire_b_per_user_b", "B/B"},
	{"bench.slice_spread_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
}

// fill pairs a table of definitions with computed values; a name the values
// lack reads 0, which is what an idle layer reports.
func fill(defs []metricDef, values map[string]float64) []metric {
	out := make([]metric, len(defs))
	for i, d := range defs {
		out[i] = metric{d.name, d.unit, values[d.name]}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEnd computes the user-visible metrics from an untraced window and
// the run's set-up times, final directory size and whole-run device writes.
func endToEnd(s spec, setups []float64, w *windowResult, writtenBefore, dirSize, writeBytes int64) map[string]float64 {
	user := float64(w.userBytes)
	written := float64(writtenBefore)
	if s.write {
		written += user
	}
	return map[string]float64{
		"setup_s":            median(setups),
		"throughput_mb_s":    w.throughputMBs(),
		"op_p50_ms":          float64(percentile(w.latencies, 0.50)) / 1e6,
		"op_p95_ms":          float64(percentile(w.latencies, 0.95)) / 1e6,
		"cpu_s_per_gb":       ratio(w.cpuSeconds, user/1e9),
		"alloc_b_per_user_b": ratio(float64(w.allocBytes), user),
		"space_amp":          ratio(float64(dirSize), float64(s.liveBytes())),
		"write_amp":          ratio(float64(writeBytes), written),
	}
}

// histDelta is the histogram of what was observed between two snapshots.
func histDelta(before, after obs.Snap, name string) obs.HistSnap {
	a, b := after.Hist(name), before.Hist(name)
	d := obs.HistSnap{Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	for i := range d.Buckets {
		d.Buckets[i] = a.Buckets[i] - b.Buckets[i]
	}
	return d
}

// perLayer computes the single-layer metrics of a traced window: counts from
// obs-snapshot and storage-decorator deltas over the window, times from the
// benchmark's own spans, costs of single calls from the probes. ref is the
// untraced window the same run measured first.
func perLayer(s spec, ref, w *windowResult, sums [numSpanNames]spanSum, p probeResults, chunkHWM int64) map[string]float64 {
	ops := float64(w.attempted)
	user := float64(w.userBytes)
	cnt := func(name string) float64 { return float64(w.obsAfter.CounterDelta(w.obsBefore, name)) }
	hist := func(name string) obs.HistSnap { return histDelta(w.obsBefore, w.obsAfter, name) }
	io := w.ioAfter.sub(w.ioBefore)
	commits := cnt("txn.commits")
	perMB := func(sum spanSum) float64 { return ratio(float64(sum.TotalNs)/1e3, user/1e6) }
	ms := func(sum spanSum) float64 { return sum.meanUs() / 1e3 }

	v := map[string]float64{
		"core.open_us":                 sums[spCoreOpen].meanUs(),
		"core.read_us_per_mb":          perMB(sums[spCoreRead]),
		"core.write_us_per_mb":         perMB(sums[spCoreWrite]),
		"core.close_us":                sums[spCoreClose].meanUs(),
		"core.chunk_loads_per_op":      ratio(cnt("lob.fchunk.chunk_loads"), ops),
		"core.read_amp":                ratio(cnt("lob.fchunk.chunk_loads")*fchunkPayload, cnt("lob.fchunk.read_bytes")),
		"core.checkpoint_ms":           float64(hist("db.checkpoint_duration").Mean()) / 1e6,
		"core.vacuum_rounds":           cnt("vacuum.rounds"),
		"core.vacuum_reclaimed_per_op": ratio(cnt("vacuum.reclaimed"), ops),

		"btree.descents_per_op": ratio(cnt("btree.descents"), ops),
		"btree.lookup_ns":       p.btreeLookupNs,
		"btree.insert_ns":       p.btreeInsertNs,

		"heap.fetches_per_op":   ratio(cnt("heap.fetches"), ops),
		"heap.inserts_per_op":   ratio(cnt("heap.inserts"), ops),
		"heap.fetch_ns":         p.heapFetchNs,
		"heap.insert_ns":        p.heapInsertNs,
		"heap.read_latch_waits": cnt("heap.read_latch_waits"),

		"page.add_item_ns": p.pageAddItemNs,
		"page.item_ns":     p.pageItemNs,
		"page.checksum_ns": p.pageChecksumNs,

		"buffer.lookups_per_op":         ratio(cnt("pool.lookups"), ops),
		"buffer.hit_ratio":              ratio(cnt("pool.hits"), cnt("pool.lookups")),
		"buffer.evictions_per_op":       ratio(cnt("pool.evictions"), ops),
		"buffer.writebacks_per_op":      ratio(cnt("pool.writebacks"), ops),
		"buffer.evict_dirty_foreground": cnt("buffer.evict.dirty_foreground"),
		"buffer.bgwriter_pages_written": cnt("buffer.bgwriter.pages_written"),
		"buffer.prefetch_installed":     cnt("buffer.prefetch.installed"),
		"buffer.latch_waits":            cnt("pool.latch_waits"),
		"buffer.get_hit_ns":             p.bufferGetHitNs,
		"buffer.get_miss_us":            p.bufferGetMissUs,
		"buffer.miss_read_p50_us":       float64(hist("pool.miss_read_latency").Quantile(0.5)) / 1e3,

		"storage.reads_per_op":       ratio(float64(io.readBlocks), ops),
		"storage.read_us":            sums[spStorageRead].meanUs(),
		"storage.read_busy_share":    ratio(float64(sums[spStorageRead].TotalNs), float64(w.elapsed)),
		"storage.writes_per_op":      ratio(float64(io.writeBlocks), ops),
		"storage.write_b_per_user_b": ratio(float64(io.writeBytes()), user),
		"storage.batch_blocks_mean":  ratio(float64(io.writeBlocks), float64(io.writeCalls)),
		"storage.syncs_per_op":       ratio(float64(io.syncs), ops),
		"storage.sync_ms":            ms(sums[spStorageSync]),

		"wal.appends_per_commit":     ratio(cnt("wal.appends"), commits),
		"wal.page_images_per_commit": ratio(cnt("wal.page_images"), commits),
		"wal.append_b_per_user_b":    ratio(cnt("wal.append_bytes"), user),
		"wal.fsyncs_per_commit":      ratio(cnt("wal.fsyncs"), commits),
		"wal.group_size_mean":        ratio(cnt("wal.group_commit_txns"), cnt("wal.fsyncs")),
		"wal.flush_p50_ms":           float64(hist("wal.flush_latency").Quantile(0.5)) / 1e6,
		"wal.append_flush_us":        p.walAppendFlushUs,
		"wal.truncated_b":            cnt("wal.truncated_bytes"),

		"txn.begin_us":  sums[spTxnBegin].meanUs(),
		"txn.commit_ms": ms(sums[spTxnCommit]),
		"txn.commits":   commits,
		"txn.aborts":    cnt("txn.aborts"),

		"compress.encode_ns_per_kb": p.encodeNsPerKB,
		"compress.decode_ns_per_kb": p.decodeNsPerKB,
		"compress.ratio":            p.ratio,

		"bench.slice_spread_pct":   spreadPct(ref.sliceMBs),
		"bench.trace_overhead_pct": ratio(ref.throughputMBs()-w.throughputMBs(), ref.throughputMBs()) * 100,
	}
	if s.edge {
		v["gateway.chunks_out_per_op"] = ratio(cnt("gateway.stream.chunks_out"), ops)
		v["gateway.bytes_out_per_user_b"] = ratio(cnt("gateway.stream.bytes_out"), user)
		v["gateway.chunk_buffer_hwm_b"] = float64(chunkHWM)
		v["gateway.rpc_read_p50_ms"] = float64(hist("gateway.stream.rpc.rawread").Quantile(0.5)) / 1e6
		v["gateway.frame_codec_ns_per_kb"] = p.frameCodecNsPerKB
		v["gateway.http_get_ms"] = p.httpGetMs
		v["client.open_ms"] = ms(sums[spClientOpen])
		v["client.read_ms"] = ms(sums[spClientRead])
		v["client.close_ms"] = ms(sums[spClientClose])
		v["client.wire_b_per_user_b"] = ratio(float64(w.wireBytes), user)
	}
	return v
}
