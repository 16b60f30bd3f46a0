package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"postlob"
	"postlob/internal/obs"
)

// windowResult is what one measured window saw. Everything is read at the
// window's edges or accumulated per client and merged afterwards; nothing is
// shared between clients while the window runs.
type windowResult struct {
	elapsed   time.Duration
	attempted int64
	failed    int64
	firstErr  error
	userBytes int64   // bytes moved by successful ops
	latencies []int64 // ns, every op, sorted
	sliceMBs  []float64

	cpuSeconds float64 // process user+sys over the window
	allocBytes uint64  // MemStats.TotalAlloc delta over the window

	obsBefore, obsAfter obs.Snap
	ioBefore, ioAfter   ioSnap
	wireBytes           int64 // edge_stream: encoded extent bytes the clients received
}

func (r *windowResult) throughputMBs() float64 { return median(r.sliceMBs) }

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// clientTally is one client's private record of the window.
type clientTally struct {
	attempted, failed int64
	firstErr          error
	userBytes         int64
	latencies         []int64
	sliceBytes        [windowSlices]int64
}

// runWindow drives the workload's clients closed-loop: each sends its next op
// when the previous one returns, until d has passed or, with maxOps > 0, the
// client has completed maxOps ops. With tr set the window is traced.
func (b *bench) runWindow(d time.Duration, maxOps int, tr *tracer) (*windowResult, error) {
	b.tr = tr
	b.io.tr.Store(tr)
	defer func() {
		b.io.stopTracing()
		b.tr = nil
	}()

	clients := make([]*clientLoop, b.spec.clients)
	tallies := make([]clientTally, b.spec.clients)
	for i := range clients {
		c, err := b.newClient(i)
		if err != nil {
			return nil, err
		}
		clients[i] = c
		samples := int(d.Seconds() * float64(b.spec.opsPerSec))
		if maxOps > 0 {
			samples = maxOps
		}
		tallies[i].latencies = make([]int64, 0, samples)
	}
	var wireBefore int64
	for _, s := range b.streams {
		wireBefore += s.WireBytesIn()
	}

	res := &windowResult{}
	runtime.GC()
	res.obsBefore = postlob.ObsSnapshot()
	res.ioBefore = b.io.snap()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	cpuBefore := cpuSeconds()

	start := time.Now()
	slice := d / windowSlices
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(c *clientLoop, t *clientTally) {
			defer wg.Done()
			t0 := start
			for t0.Sub(start) < d && (maxOps == 0 || t.attempted < int64(maxOps)) {
				n, err := c.op()
				t1 := time.Now()
				t.attempted++
				t.latencies = append(t.latencies, int64(t1.Sub(t0)))
				if err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = err
					}
				} else {
					t.userBytes += n
					if k := int(t1.Sub(start) / slice); k < windowSlices {
						t.sliceBytes[k] += n
					}
				}
				t0 = t1
			}
		}(clients[i], &tallies[i])
	}
	wg.Wait()
	res.elapsed = time.Since(start)

	res.cpuSeconds = cpuSeconds() - cpuBefore
	runtime.ReadMemStats(&ms)
	res.allocBytes = ms.TotalAlloc - allocBefore
	res.ioAfter = b.io.snap()
	res.obsAfter = postlob.ObsSnapshot()
	for _, s := range b.streams {
		res.wireBytes += s.WireBytesIn()
	}
	res.wireBytes -= wireBefore

	var sliceBytes [windowSlices]int64
	for i := range tallies {
		t := &tallies[i]
		res.attempted += t.attempted
		res.failed += t.failed
		if res.firstErr == nil {
			res.firstErr = t.firstErr
		}
		res.userBytes += t.userBytes
		res.latencies = append(res.latencies, t.latencies...)
		for k, n := range t.sliceBytes {
			sliceBytes[k] += n
		}
	}
	slices.Sort(res.latencies)
	res.sliceMBs = make([]float64, windowSlices)
	for k, n := range sliceBytes {
		res.sliceMBs[k] = float64(n) / 1e6 / slice.Seconds()
	}
	for _, c := range clients {
		if err := c.done(); err != nil {
			return nil, fmt.Errorf("closing client: %w", err)
		}
	}
	if res.attempted == 0 {
		return nil, fmt.Errorf("window of %v completed no op", d)
	}
	return res, nil
}
