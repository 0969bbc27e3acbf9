package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchFile is the part of BENCHMARK.json the steadiness command reads.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs each workload once per seed and prints, for every
// end-to-end metric, the median, the quartiles, and the quartile spread
// as a share of the median against the metric's bound.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload, on seeds 1..runs")
	only := fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	} else {
		for _, w := range bf.Workloads {
			names = append(names, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range names {
		values := map[string][]float64{}
		var failedShares []string
		for seed := 1; seed <= *runs; seed++ {
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1]))).Decode(&res); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: output checks failed", name, seed)
			}
			failedShares = append(failedShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", name, seed, lines[len(lines)-1])
		}
		fmt.Printf("%s (%d runs; failed/attempted %s)\n", name, *runs, strings.Join(failedShares, " "))
		fmt.Printf("  %-12s %14s %14s %14s %8s %6s %s\n", "metric", "median", "q1", "q3", "spread", "bound", "")
		for _, m := range bf.EndToEnd {
			vs := values[m.Name]
			if len(vs) == 0 {
				continue
			}
			med, q1, q3 := quartiles(vs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "OVER BOUND"
			case spread > m.Bound/3:
				verdict = "above a third of bound"
			}
			fmt.Printf("  %-12s %14.6g %14.6g %14.6g %8.4f %6.3f %s\n", m.Name, med, q1, q3, spread, m.Bound, verdict)
		}
	}
	return nil
}

// quartiles returns the median and the first and third quartiles, the
// latter two as Python's statistics.quantiles(data, n=4) computes them
// (the "exclusive" method).
func quartiles(data []float64) (med, q1, q3 float64) {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	if n < 2 {
		return med, med, med
	}
	m := n + 1
	q := func(j int) float64 {
		jj, delta := j*m/4, j*m%4
		if jj < 1 {
			jj, delta = 1, 0
		}
		if jj > n-1 {
			jj, delta = n-1, 4
		}
		return (d[jj-1]*float64(4-delta) + d[jj]*float64(delta)) / 4
	}
	return med, q(1), q(3)
}
