package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// spanName indexes spanNames; spans store the index, not the string.
type spanName uint8

const (
	spOp spanName = iota
	spBackground
	spTxnBegin
	spTxnCommit
	spCoreOpen
	spCoreRead
	spCoreWrite
	spCoreClose
	spCoreCheckpoint
	spClientOpen
	spClientRead
	spClientClose
	spStorageRead
	spStorageWrite
	spStorageSync
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "background", "txn.begin", "txn.commit",
	"core.open", "core.read", "core.write", "core.close", "core.checkpoint",
	"client.open", "client.read", "client.close",
	"storage.read", "storage.write", "storage.sync",
}

// span is one timed call, recorded by the benchmark around a call into a
// layer. Times are nanoseconds since the tracer started. Parent is the span
// that caused this one (-1 for a root); Op is the span of the operation it
// belongs to (-1 for background work), the identifier one request's spans
// share.
type span struct {
	Name       spanName
	Parent, Op int32
	Start, End int64
}

// maxSpans bounds the trace's memory (32 bytes a span); a traced window
// records well under this, and anything beyond is counted as dropped.
const maxSpans = 2 << 20

// traceFileSpans bounds the spans written to the trace file; the summary in
// the same file covers every recorded span.
const traceFileSpans = 100_000

// tracer records spans into a preallocated array with one atomic add per
// span, so the storage decorator can record from any goroutine. A nil
// tracer records nothing: every method is a no-op, which is the untraced
// run.
type tracer struct {
	t0      time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64

	// curOp is the op span in flight on a single-client workload, or the
	// background root when no op is running or clients overlap; the storage
	// decorator parents its spans to it.
	curOp      atomic.Int32
	background int32
	single     bool
}

func newTracer(singleClient bool) *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, maxSpans), single: singleClient}
	t.background = t.begin(spBackground, -1, -1)
	t.curOp.Store(t.background)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index, or -1 when the tracer is nil or
// full.
func (t *tracer) begin(name spanName, parent, op int32) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{Name: name, Parent: parent, Op: op, Start: t.now()}
	return int32(i)
}

// end closes the span begin returned.
func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].End = t.now()
	}
}

// beginOp opens the root span of one operation.
func (t *tracer) beginOp() int32 {
	op := t.begin(spOp, -1, -1)
	if op >= 0 {
		t.spans[op].Op = op
		if t.single {
			t.curOp.Store(op)
		}
	}
	return op
}

// endOp closes an operation's root span.
func (t *tracer) endOp(op int32) {
	if op >= 0 {
		if t.single {
			t.curOp.Store(t.background)
		}
		t.end(op)
	}
}

// child opens a span for a public call made by operation op.
func (t *tracer) child(name spanName, op int32) int32 {
	if op < 0 {
		return -1
	}
	return t.begin(name, op, op)
}

// beginStorage opens a span for a storage-manager call: under the op in
// flight on a single-client workload, under the background root otherwise.
func (t *tracer) beginStorage(name spanName) int32 {
	if t == nil {
		return -1
	}
	parent := t.curOp.Load()
	op := parent
	if parent == t.background {
		op = -1
	}
	return t.begin(name, parent, op)
}

// recorded closes the background root and returns the spans recorded so far.
func (t *tracer) recorded() []span {
	t.end(t.background)
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its direct children cover. Children may overlap one another
// (background writes under an op) and may outlast the parent; the covered
// part is the union of the children's intervals clipped to the parent's.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	order := make([]int32, 0, len(spans))
	for i := range spans {
		self[i] = spans[i].End - spans[i].Start
		if spans[i].Parent >= 0 {
			order = append(order, int32(i))
		}
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := &spans[order[a]], &spans[order[b]]
		if x.Parent != y.Parent {
			return x.Parent < y.Parent
		}
		return x.Start < y.Start
	})
	for i := 0; i < len(order); {
		p := spans[order[i]].Parent
		lo, hi := spans[p].Start, spans[p].End
		covered, reach := int64(0), lo
		for ; i < len(order) && spans[order[i]].Parent == p; i++ {
			s, e := spans[order[i]].Start, spans[order[i]].End
			if s < reach {
				s = reach
			}
			if e > hi {
				e = hi
			}
			if e > s {
				covered += e - s
				reach = e
			}
		}
		self[p] -= covered
	}
	return self
}

// spanSum is the per-name total the per-layer metrics are computed from.
type spanSum struct {
	Count           int64
	TotalNs, SelfNs int64
}

// summarize totals the closed spans by name.
func summarize(spans []span) [numSpanNames]spanSum {
	self := selfTimes(spans)
	var sums [numSpanNames]spanSum
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			continue
		}
		sums[s.Name].Count++
		sums[s.Name].TotalNs += s.End - s.Start
		sums[s.Name].SelfNs += self[i]
	}
	return sums
}

// meanUs is the mean duration of the named spans in microseconds.
func (s spanSum) meanUs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.TotalNs) / float64(s.Count) / 1e3
}

// writeTrace writes the run's spans to <dir>/<workload>.trace.json: the
// per-name summary of every recorded span and the first traceFileSpans spans
// as [name, start_ns, end_ns, parent, op] rows.
func writeTrace(dir, workload string, seed int64, spans []span, dropped int64, sums [numSpanNames]spanSum) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"spans_recorded\":%d,\"spans_dropped\":%d,\n", workload, seed, len(spans), dropped)
	fmt.Fprintf(w, "\"names\":[")
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	fmt.Fprintf(w, "],\n\"summary\":{")
	for i, s := range sums {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q:{\"count\":%d,\"total_ns\":%d,\"self_ns\":%d}", spanNames[i], s.Count, s.TotalNs, s.SelfNs)
	}
	fmt.Fprintf(w, "},\n\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op\"],\n\"spans\":[\n")
	n := len(spans)
	if n > traceFileSpans {
		n = traceFileSpans
	}
	for i := 0; i < n; i++ {
		s := &spans[i]
		sep := ","
		if i == n-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d]%s\n", s.Name, s.Start, s.End, s.Parent, s.Op, sep)
	}
	fmt.Fprintf(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
