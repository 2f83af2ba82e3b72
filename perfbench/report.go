package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
)

// steadiness repeats every workload over seeds 1..n, each run in a
// fresh process exactly as a single invocation would run it, and prints
// per metric the median, the quartiles and the relative spread
// (interquartile distance over the median).
func steadiness(cfg *config, n, seconds int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	traceArg := "0"
	if cfg.trace {
		traceArg = "1"
	}
	for _, name := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		var failedShare []string
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "--served", cfg.served, "--work", cfg.work,
				"--workload", name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", traceArg)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			for _, l := range lines[:len(lines)-1] {
				if bytes.HasPrefix(l, []byte("parallelism:")) {
					fmt.Printf("%s seed %d %s\n", name, seed, l)
				}
			}
			var res struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           metrics
			}
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			failedShare = append(failedShare, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
				units[k] = v.Unit
			}
		}
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w := bufio.NewWriter(os.Stdout)
		fmt.Fprintf(w, "\n%s, %d runs of %d s, failed/attempted %v\n", name, n, seconds, failedShare)
		fmt.Fprintf(w, "%-32s %12s %12s %12s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "unit")
		for _, k := range keys {
			q1, med, q3 := quartiles(values[k])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Fprintf(w, "%-32s %12.5g %12.5g %12.5g %7.1f%%  %s\n", k, q1, med, q3, 100*spread, units[k])
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// quartiles returns the quartiles the way Python's
// statistics.quantiles(data, n=4) computes them (the exclusive method).
// Fewer than two values give that value three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := slices.Clone(xs)
	sort.Float64s(d)
	if len(d) < 2 {
		v := 0.0
		if len(d) == 1 {
			v = d[0]
		}
		return v, v, v
	}
	ld, m := len(d), len(d)+1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
