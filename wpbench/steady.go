package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the benchmark's contract at the repository root: its
// workloads, run length and end-to-end metrics with their bounds.
const benchmarkFile = "BENCHMARK.json"

type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs each workload (or only the named one) n times, one
// process per run with seeds 1..n, and prints for every end-to-end metric
// the median and the interquartile spread as a share of the median,
// flagging each spread above the metric's bound. seconds ≤ 0 uses the
// contract's run_seconds. It fails when a run fails or a flagged spread is
// gated: setup_s's spread is reported but not gated, only its drift is.
func steadiness(n int, seconds float64, only string) error {
	if n < 2 {
		return fmt.Errorf("--steady needs at least 2 runs, got %d", n)
	}
	raw, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	if seconds <= 0 {
		seconds = float64(c.RunSeconds)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	flagged := 0
	for _, w := range c.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := make(map[string][]float64)
		for seed := 1; seed <= n; seed++ {
			res, err := runChild(self, w.Name, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			if !res.Correct || res.Failed != 0 {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", w.Name, seed, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("%s: %d runs of %gs\n", w.Name, n, seconds)
		for _, m := range c.EndToEnd {
			vs := values[m.Name]
			if len(vs) < 2 {
				return fmt.Errorf("%s: metric %s missing", w.Name, m.Name)
			}
			med := median(vs)
			q1, q3 := quartiles(vs)
			spread := (q3 - q1) / med
			mark := "ok"
			if spread > m.Bound {
				mark = "EXCEEDS BOUND"
				if m.Name != "setup_s" {
					flagged++
				}
			}
			fmt.Printf("  %-16s median %12.4f %-8s spread %6.2f%% bound %5.1f%% %s  runs %.4g\n",
				m.Name, med, m.Unit, spread*100, m.Bound*100, mark, vs)
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d gated metric spreads exceed their bounds", flagged)
	}
	return nil
}

// runChild runs one untraced benchmark process and parses its result line.
func runChild(self, workload string, seed int, seconds float64) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
