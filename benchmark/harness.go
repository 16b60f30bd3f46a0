package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// manifestPath is BENCHMARK.json, relative to the repository root the
// benchmark is run from.
const manifestPath = "BENCHMARK.json"

// manifest is the part of BENCHMARK.json the harness and the tests read.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// childResult is the result line of one child run.
type childResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	sliceSpreadPct float64 // from the child's progress line
}

var sliceSpreadRE = regexp.MustCompile(`slice spread ([0-9.]+)%`)

// runChild runs one workload in a process of its own, the way the driver
// does, and parses the last line of its standard output.
func runChild(cfg config, workload string, seed int64, trace bool) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", t,
		"-dir", cfg.dir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if m := sliceSpreadRE.FindSubmatch(stderr.Bytes()); m != nil {
		res.sliceSpreadPct, _ = strconv.ParseFloat(string(m[1]), 64)
	}
	return &res, nil
}

// runAll runs every workload untraced and traced and prints one JSON object
// per workload with every metric by name, value and unit.
func runAll(cfg config) error {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, s := range specs {
		plain, err := runChild(cfg, s.name, cfg.seed, false)
		if err != nil {
			return err
		}
		traced, err := runChild(cfg, s.name, cfg.seed, true)
		if err != nil {
			return err
		}
		out := map[string]any{
			"workload":      s.name,
			"why":           s.why,
			"seed":          cfg.seed,
			"ops_attempted": plain.Attempted + traced.Attempted,
			"ops_failed":    plain.Failed + traced.Failed,
			"end_to_end":    plain.Metrics,
			"per_layer":     traced.Metrics,
		}
		line, err := json.Marshal(out)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", line)
		w.Flush()
	}
	return nil
}

// runRepeat is the repeatability harness: every workload n times as two
// interleaved sets (A B A B ...), each run a process of its own with a seed of
// its own. It prints each set's median and quartiles per end-to-end metric
// and fails if a pair of medians differs by more than the metric's bound, or
// a set's interquartile spread exceeds it — the driver's two checks.
func runRepeat(cfg config, n int) error {
	man, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	spreads := map[string][]float64{}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, s := range specs {
				seed := cfg.seed + int64(2*i+set)
				res, err := runChild(cfg, s.name, seed, false)
				if err != nil {
					return err
				}
				if res.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d ops failed", s.name, seed, res.Failed, res.Attempted)
				}
				for name, m := range res.Metrics {
					k := key{s.name, name}
					sets[set][k] = append(sets[set][k], m.Value)
				}
				spreads[s.name] = append(spreads[s.name], res.sliceSpreadPct)
				fmt.Fprintf(os.Stderr, "run %d/%d set %c %s done\n", i+1, n, 'A'+set, s.name)
			}
		}
	}

	fmt.Printf("Two interleaved sets of %d runs per workload, %gs windows, seeds %d..%d.\n\n", n, cfg.seconds, cfg.seed, cfg.seed+int64(2*n-1))
	fmt.Println("| workload | metric | A median | A q1..q3 | B median | B q1..q3 | spread A / B | medians differ | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	failures := 0
	for _, s := range specs {
		for _, mm := range man.EndToEnd {
			k := key{s.name, mm.Name}
			a, b := sets[0][k], sets[1][k]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			// How much worse B's median is than A's, and the reverse; the
			// larger is what a bound has to absorb.
			diff := max(ratio(mb-ma, ma), ratio(ma-mb, mb)) * 100
			verdict := "ok"
			if diff > mm.Bound*100 {
				verdict = "MEDIANS DIFFER"
				failures++
			} else if mm.Name != "setup_s" && max(spreadPct(a), spreadPct(b)) > mm.Bound*100 {
				verdict = "SPREAD"
				failures++
			}
			fmt.Printf("| %s | %s | %.5g | %.5g..%.5g | %.5g | %.5g..%.5g | %.2f%% / %.2f%% | %.2f%% | %.0f%% | %s |\n",
				s.name, mm.Name, ma, a1, a3, mb, b1, b3, spreadPct(a), spreadPct(b), diff, mm.Bound*100, verdict)
		}
	}
	fmt.Println("\n`bench.slice_spread_pct` of every run, in run order (A B A B ...):")
	fmt.Println()
	for _, s := range specs {
		parts := make([]string, len(spreads[s.name]))
		for i, v := range spreads[s.name] {
			parts[i] = strconv.FormatFloat(v, 'f', 2, 64)
		}
		fmt.Printf("- %s: %s\n", s.name, strings.Join(parts, " "))
	}
	if failures > 0 {
		return fmt.Errorf("%d (workload, metric) pairs do not repeat within their bound", failures)
	}
	return nil
}
