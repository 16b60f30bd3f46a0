package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"postlob/internal/page"
	"postlob/internal/storage"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 10}, {0.5, 50}, {0.51, 60}, {0.95, 100}, {0.9, 90}, {1, 100}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if m := median(ten); m != 5.5 {
		t.Errorf("median = %v", m)
	}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 := quartiles([]float64{5, 4, 3, 2, 1}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles of five = %v, %v", q1, q3)
	}
	if got, want := spreadPct(ten), (8.25-2.75)/5.5*100; got != want {
		t.Errorf("spreadPct = %v, want %v", got, want)
	}
	if ten[0] != 7 {
		t.Error("median or quartiles reordered the caller's slice")
	}
}

func TestSliceMedianIgnoresOneBurst(t *testing.T) {
	// Nine even slices and one a neighbour stole half of: the reported
	// throughput is the even slices'.
	r := windowResult{sliceMBs: []float64{100, 100, 50, 100, 100, 100, 100, 100, 100, 100}}
	if got := r.throughputMBs(); got != 100 {
		t.Errorf("throughput = %v", got)
	}
}

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	spans := []span{
		0: {Name: spOp, Parent: -1, Start: 0, End: 100},
		1: {Name: spCoreRead, Parent: 0, Start: 10, End: 30},
		2: {Name: spStorageRead, Parent: 0, Start: 20, End: 50},   // overlaps 1
		3: {Name: spStorageWrite, Parent: 0, Start: 90, End: 120}, // outlasts the parent
		4: {Name: spStorageRead, Parent: 1, Start: 12, End: 20},
		5: {Name: spOp, Parent: -1, Start: 200, End: 260}, // no children
	}
	// Children of 0 cover [10,50] and [90,100] of [0,100].
	want := []int64{50, 12, 30, 30, 8, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	sums := summarize(spans)
	if s := sums[spOp]; s.Count != 2 || s.TotalNs != 160 || s.SelfNs != 110 {
		t.Errorf("op summary = %+v", s)
	}
	if s := sums[spStorageRead]; s.Count != 2 || s.TotalNs != 38 {
		t.Errorf("storage.read summary = %+v", s)
	}
}

func TestCountingManagerAgainstMemManager(t *testing.T) {
	c := &ioCounters{}
	m := &countingManager{Manager: storage.NewMemManager(storage.DeviceModel{}, nil), c: c}
	blk := make([]byte, page.Size)
	for _, rel := range []storage.RelName{"lobj_7_data", "lobj_7_idx", "pg_wal_0000"} {
		if err := m.Create(rel); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.WriteBlock("lobj_7_data", 0, blk))
	must(m.WriteBlocks("lobj_7_data", 1, [][]byte{blk, blk, blk}))
	must(m.WriteBlock("lobj_7_idx", 0, blk))
	must(m.WriteBlock("pg_wal_0000", 0, blk))
	must(m.WriteBlock("pg_wal_0000", 1, blk))
	must(m.Sync("pg_wal_0000"))

	tr := newTracer(true)
	c.tr.Store(tr)
	op := tr.beginOp()
	must(m.ReadBlock("lobj_7_idx", 0, blk))
	must(m.ReadBlocks("lobj_7_data", 0, [][]byte{blk, blk}))
	tr.endOp(op)
	must(m.ReadBlock("lobj_7_data", 3, blk)) // no op in flight: background
	c.stopTracing()
	must(m.ReadBlock("lobj_7_data", 3, blk)) // untraced: counted, no span

	if n, err := m.NBlocks("lobj_7_data"); err != nil || n != 4 {
		t.Errorf("inner manager holds %d blocks (%v), want 4", n, err)
	}
	for _, chk := range []struct {
		what      string
		got, want int64
	}{
		{"data write calls", c.writeCalls[classData].Load(), 2},
		{"data write blocks", c.writeBlocks[classData].Load(), 4},
		{"index write blocks", c.writeBlocks[classIndex].Load(), 1},
		{"wal write blocks", c.writeBlocks[classWAL].Load(), 2},
		{"wal syncs", c.syncs[classWAL].Load(), 1},
		{"data read calls", c.readCalls[classData].Load(), 3},
		{"data read blocks", c.readBlocks[classData].Load(), 4},
		{"index read blocks", c.readBlocks[classIndex].Load(), 1},
	} {
		if chk.got != chk.want {
			t.Errorf("%s = %d, want %d", chk.what, chk.got, chk.want)
		}
	}
	s := c.snap()
	if s.writeBytes() != 7*page.Size || s.walWriteBlocks != 2 || s.readBlocks != 5 {
		t.Errorf("snapshot = %+v", s)
	}

	spans := tr.recorded()
	var underOp, background int
	for _, sp := range spans {
		if sp.Name != spStorageRead {
			continue
		}
		switch sp.Parent {
		case op:
			underOp++
		case tr.background:
			background++
		}
	}
	if underOp != 2 || background != 1 {
		t.Errorf("storage.read spans: %d under the op, %d under background; want 2 and 1", underOp, background)
	}
}

func TestSeedChangesContentsNotGeometry(t *testing.T) {
	s := specs[0].shrunk(16)
	a, b, again := genOracle(s, 1), genOracle(s, 2), genOracle(s, 1)
	if len(a) != len(b) {
		t.Fatalf("object count follows the seed: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Errorf("object %d size follows the seed", i)
		}
		if bytes.Equal(a[i], b[i]) {
			t.Errorf("object %d is the same under two seeds", i)
		}
		if !bytes.Equal(a[i], again[i]) {
			t.Errorf("object %d differs under one seed", i)
		}
	}
}

// TestWorkloadSmoke runs every workload, untraced and traced, on a shrunk
// geometry for 200 ms, and holds the result to BENCHMARK.json: no failed op,
// and exactly the named metrics, in order, with the named units.
func TestWorkloadSmoke(t *testing.T) {
	man, err := readManifest("../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(man.Workloads), len(specs))
	}
	for i, s := range specs {
		if man.Workloads[i].Name != s.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, man.Workloads[i].Name, s.name)
		}
	}
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: s.name, seed: 5, seconds: 0.2, trace: traced,
				dir: t.TempDir(), out: t.TempDir(), shrink: 16, probeBudget: 2 * time.Millisecond,
			}
			res, err := run(cfg, s.shrunk(cfg.shrink))
			if err != nil {
				t.Fatalf("%s traced=%t: %v", s.name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%t: %d of %d ops failed: %v", s.name, traced, res.failed, res.attempted, res.firstErr)
			}
			want := man.EndToEnd
			if traced {
				want = man.PerLayer
			}
			if len(res.metrics) != len(want) {
				t.Fatalf("%s traced=%t: %d metrics, BENCHMARK.json names %d", s.name, traced, len(res.metrics), len(want))
			}
			for i, m := range res.metrics {
				if m.name != want[i].Name || m.unit != want[i].Unit {
					t.Errorf("%s metric %d is %s [%s], BENCHMARK.json says %s [%s]", s.name, i, m.name, m.unit, want[i].Name, want[i].Unit)
				}
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s %s = %v", s.name, m.name, m.value)
				}
				if !traced && m.value <= 0 {
					t.Errorf("%s %s = %v; an end-to-end metric is never 0", s.name, m.name, m.value)
				}
			}
			var parsed childResult
			if err := json.Unmarshal([]byte(res.line()), &parsed); err != nil {
				t.Errorf("%s: result line is not JSON: %v", s.name, err)
			} else if !parsed.Correct || parsed.Attempted != res.attempted || len(parsed.Metrics) != len(want) {
				t.Errorf("%s: result line round-trips to %+v", s.name, parsed)
			}
		}
	}
}
