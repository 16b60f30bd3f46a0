package core

import (
	"postlob/internal/adt"
	"postlob/internal/obs"
)

// lobMetrics is the per-implementation traffic instrument set. One fixed set
// exists per storage kind — registered at package init, as the obsregister
// analyzer requires — so u-file vs p-file vs f-chunk vs v-segment traffic is
// directly comparable, mirroring the paper's Figure 1–3 axes.
type lobMetrics struct {
	opens, reads, writes, seeks *obs.Counter
	readBytes, writeBytes       *obs.Counter
}

var ufileMetrics = lobMetrics{
	opens:      obs.NewCounter("lob.ufile.opens"),
	reads:      obs.NewCounter("lob.ufile.reads"),
	writes:     obs.NewCounter("lob.ufile.writes"),
	seeks:      obs.NewCounter("lob.ufile.seeks"),
	readBytes:  obs.NewCounter("lob.ufile.read_bytes"),
	writeBytes: obs.NewCounter("lob.ufile.write_bytes"),
}

var pfileMetrics = lobMetrics{
	opens:      obs.NewCounter("lob.pfile.opens"),
	reads:      obs.NewCounter("lob.pfile.reads"),
	writes:     obs.NewCounter("lob.pfile.writes"),
	seeks:      obs.NewCounter("lob.pfile.seeks"),
	readBytes:  obs.NewCounter("lob.pfile.read_bytes"),
	writeBytes: obs.NewCounter("lob.pfile.write_bytes"),
}

var fchunkMetrics = lobMetrics{
	opens:      obs.NewCounter("lob.fchunk.opens"),
	reads:      obs.NewCounter("lob.fchunk.reads"),
	writes:     obs.NewCounter("lob.fchunk.writes"),
	seeks:      obs.NewCounter("lob.fchunk.seeks"),
	readBytes:  obs.NewCounter("lob.fchunk.read_bytes"),
	writeBytes: obs.NewCounter("lob.fchunk.write_bytes"),
}

var vsegmentMetrics = lobMetrics{
	opens:      obs.NewCounter("lob.vsegment.opens"),
	reads:      obs.NewCounter("lob.vsegment.reads"),
	writes:     obs.NewCounter("lob.vsegment.writes"),
	seeks:      obs.NewCounter("lob.vsegment.seeks"),
	readBytes:  obs.NewCounter("lob.vsegment.read_bytes"),
	writeBytes: obs.NewCounter("lob.vsegment.write_bytes"),
}

// fchunkChunkReadBytes counts bytes copied out of individual chunks on the
// f-chunk read path, accounted per chunk inside the read loop. Total bytes
// returned by Read (lob.fchunk.read_bytes) must equal this sum — the
// conservation law the soak and crash harnesses assert, which catches a
// double-counted or dropped chunk in the loop.
var fchunkChunkReadBytes = obs.NewCounter("lob.fchunk.chunk_read_bytes")

// fchunkChunkLoads counts chunk tuples the read path fetched from the heap,
// into the one-chunk cache or straight into the caller's buffer (i.e.
// read-path cache misses at chunk granularity).
var fchunkChunkLoads = obs.NewCounter("lob.fchunk.chunk_loads")

// lobMetricsFor returns the instrument set for a storage kind (nil for an
// unknown kind, which callers treat as "don't count").
func lobMetricsFor(kind adt.StorageKind) *lobMetrics {
	switch kind {
	case adt.KindUFile:
		return &ufileMetrics
	case adt.KindPFile:
		return &pfileMetrics
	case adt.KindFChunk:
		return &fchunkMetrics
	case adt.KindVSegment:
		return &vsegmentMetrics
	default:
		return nil
	}
}
