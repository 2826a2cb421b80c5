package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchFile is the part of BENCHMARK.json the steadiness mode reads.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs cfg.workload (every workload when it is "all") n times,
// each in a fresh process with seeds cfg.seed .. cfg.seed+n-1, and
// prints per end-to-end metric the median, the quartiles and the spread
// (interquartile distance over the median) against the metric's bound.
// A spread of a third of the bound or more is flagged; failed operations
// and incorrect runs make it return an error. It reads the bounds from
// BENCHMARK.json in the working directory (the repository root).
func runSteady(cfg config, n int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = nil
		for _, w := range bf.Workloads {
			names = append(names, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bad := 0
	for _, name := range names {
		values := map[string][]float64{}
		var failShare []string
		for i := 0; i < n; i++ {
			seed := cfg.seed + int64(i)
			res, host, err := runChild(self, name, seed, cfg.seconds, cfg.trace)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if i == 0 {
				fmt.Printf("%s: %s\n", name, host)
			}
			if !res.Correct || res.Failed != 0 {
				bad++
			}
			failShare = append(failShare, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		fmt.Printf("%s: %d runs, failed/attempted per run: %s\n", name, n, strings.Join(failShare, " "))
		fmt.Printf("  %-22s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, e := range bf.EndToEnd {
			q1, q2, q3, ok := quartiles(values[e.Name])
			if !ok {
				continue
			}
			spread := (q3 - q1) / q2
			flag := ""
			if spread >= e.Bound/3 {
				flag = "  <- above a third of the bound"
			}
			fmt.Printf("  %-22s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n", e.Name+" ("+e.Unit+")", q1, q2, q3, 100*spread, 100*e.Bound, flag)
			fmt.Printf("  %-22s %s\n", "", formatValues(values[e.Name]))
		}
		if cfg.trace {
			// Traced runs print per-layer metrics: list their medians.
			var keys []string
			for k := range values {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf("  %-28s %14.6g\n", k, median(values[k]))
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs were incorrect or had failed operations", bad)
	}
	return nil
}

// runChild runs one benchmark process and parses its host line and its
// last line.
func runChild(self, name string, seed int64, seconds int, trace bool) (result, string, error) {
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", tr)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, "", err
	}
	var last, host string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			last = line
			if strings.HasPrefix(line, "host ") {
				host = strings.TrimPrefix(line, "host ")
			}
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, "", fmt.Errorf("result line %q: %w", last, err)
	}
	return res, host, nil
}

func formatValues(xs []float64) string {
	var parts []string
	for _, x := range xs {
		parts = append(parts, strconv.FormatFloat(x, 'g', 5, 64))
	}
	return strings.Join(parts, " ")
}
