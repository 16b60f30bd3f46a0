// Command benchmark is the repository's benchmark: four closed-loop
// workloads over the large-object stack, eight end-to-end metrics from an
// untraced run, and the per-layer metrics from a separate traced run. See
// README.md in this directory for why each workload and metric exists.
//
//	bash benchmark/run.sh -workload scan_hot -seed 1 -seconds 20 -trace 0
//	bash benchmark/run.sh -all
//	bash benchmark/run.sh -repeat 10
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // parent of the data directories
	out      string // where the trace file goes

	// The unit tests shrink the geometry and the probes to smoke a workload
	// in a fraction of a second; the command line always sets 1 and
	// probeBudget.
	shrink      int
	probeBudget time.Duration
}

// result is one run: what the last line of standard output reports.
type result struct {
	attempted, failed int64
	firstErr          error
	metrics           []metric
}

func main() {
	var cfg config
	var all bool
	var repeat, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: scan_hot, frame_cold, replace_wal or edge_stream")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input: object bytes, offsets, object order")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = the traced run, printing the per-layer metrics; 0 = the untraced run, printing the end-to-end metrics")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "data"), "directory the data directories are created in (and removed from)")
	flag.BoolVar(&all, "all", false, "run every workload untraced and traced and print every metric")
	flag.IntVar(&repeat, "repeat", 0, "run every workload N times as two interleaved sets and compare the sets' medians")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.out = filepath.Join("benchmark", "out")
	cfg.shrink, cfg.probeBudget = 1, probeBudget
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	var err error
	switch {
	case repeat > 0:
		err = runRepeat(cfg, repeat)
	case all:
		err = runAll(cfg)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload once and prints its result line; a failed op is
// reported in the line and by the exit status.
func runOne(cfg config) error {
	s, ok := specByName(cfg.workload)
	if !ok {
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = s.name
		}
		return fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	res, err := run(cfg, s.shrunk(cfg.shrink))
	if err != nil {
		return err
	}
	fmt.Println(res.line())
	if res.failed > 0 {
		return fmt.Errorf("%d of %d ops failed; first: %v", res.failed, res.attempted, res.firstErr)
	}
	return nil
}

// line renders the result as the one-line JSON object the driver reads.
// Values keep every digit they were measured with.
func (r *result) line() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.failed == 0, r.attempted, r.failed)
	for i, m := range r.metrics {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, `%q: {"value": %s, "unit": %q}`, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	sb.WriteString("}}")
	return sb.String()
}

// run sets the workload up, measures it and verifies it. The untraced run
// sets up setupRepeats times and measures one window of cfg.seconds; the
// traced run sets up once and fits an untraced reference window, the traced
// window and the layer probes into the same time.
func run(cfg config, s spec) (*result, error) {
	orc := genOracle(s, cfg.seed)
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var b *bench
	var setups []float64
	for k := 0; k < repeats; k++ {
		b = &bench{
			spec: s, seed: cfg.seed, oracle: orc, io: &ioCounters{},
			dir: filepath.Join(cfg.dir, fmt.Sprintf("%s-%d-%d", s.name, os.Getpid(), k)),
		}
		if err := os.RemoveAll(b.dir); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := b.setUp(); err != nil {
			b.tearDown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < repeats-1 {
			if err := b.tearDown(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
		}
	}
	res, err := b.measure(cfg, setups)
	if terr := b.tearDown(); err == nil && terr != nil {
		err = fmt.Errorf("tear-down: %w", terr)
	}
	return res, err
}

// measure runs the window(s) on a set-up bench, verifies every object
// against the oracle, and computes the run's metrics.
func (b *bench) measure(cfg config, setups []float64) (*result, error) {
	window := time.Duration(cfg.seconds * float64(time.Second))
	var ref, win *windowResult
	var sums [numSpanNames]spanSum
	var probes probeResults
	var chunkHWM int64
	var err error
	if !cfg.trace {
		if win, err = b.runWindow(window, 0, nil); err != nil {
			return nil, err
		}
	} else {
		// Reference window, traced window and probes share the run's time.
		part := window * 3 / 10
		if ref, err = b.runWindow(part, 0, nil); err != nil {
			return nil, err
		}
		if b.gw != nil {
			b.gw.ResetChunkBufferHWM()
		}
		tr := newTracer(b.spec.clients == 1)
		if win, err = b.runWindow(part, 0, tr); err != nil {
			return nil, err
		}
		if b.gw != nil {
			chunkHWM = b.gw.ChunkBufferHWM()
		}
		spans := tr.recorded()
		sums = summarize(spans)
		if err := writeTrace(cfg.out, b.spec.name, cfg.seed, spans, tr.dropped.Load(), sums); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		p := prober{cfg.probeBudget}
		if probes, err = p.run(b.spec, b.oracle[0][:fchunkPayload], b.dir); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}

	res := &result{attempted: win.attempted, failed: win.failed, firstErr: win.firstErr}
	if ref != nil {
		res.attempted += ref.attempted
		res.failed += ref.failed
		if res.firstErr == nil {
			res.firstErr = ref.firstErr
		}
	}

	// Every acknowledged overwrite must survive a restart: replace_wal is
	// verified on a reopened database.
	if b.spec.write {
		if err := b.db.Close(); err != nil {
			return nil, err
		}
		if err := b.open(false); err != nil {
			return nil, err
		}
	}
	bad, err := b.verify()
	if err != nil {
		return nil, err
	}
	res.attempted += int64(len(b.refs))
	res.failed += int64(bad)
	if bad > 0 && res.firstErr == nil {
		res.firstErr = fmt.Errorf("%d objects differ from the oracle after the window", bad)
	}
	if err := b.db.Checkpoint(); err != nil {
		return nil, err
	}
	dirSize, err := dirBytes(b.dir)
	if err != nil {
		return nil, err
	}

	if cfg.trace {
		res.metrics = fill(perLayerDefs, perLayer(b.spec, ref, win, sums, probes, chunkHWM))
	} else {
		res.metrics = fill(endToEndDefs, endToEnd(b.spec, setups, win, b.writtenBefore, dirSize, b.io.snap().writeBytes()))
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d trace=%t: %d ops in %.2fs, %d failed, slice spread %.2f%%\n",
		b.spec.name, cfg.seed, cfg.trace, win.attempted, win.elapsed.Seconds(), res.failed, spreadPct(win.sliceMBs))
	return res, nil
}
