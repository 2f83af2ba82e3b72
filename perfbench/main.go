// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh builds it and cmd/served); it generates every
// input from --seed, drives a real served over loopback with at most two
// connections, checks every answer against an oracle computed from the
// generated rows, and prints one JSON result as its last line.
//
//	perfbench --served BIN --workload dash-rw --seed 1 --seconds 20 --trace 0
//	perfbench --served BIN --report 5 --seconds 20
//
// --trace 0 runs the untraced end-to-end measurement; --trace 1 runs the
// same workload in-process with spans around each layer's public entry
// points and prints the per-layer metrics instead. --report N repeats
// every workload over seeds 1..N and prints each metric's median,
// quartiles and relative spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

type config struct {
	served   string
	work     string
	runDir   string
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

func main() {
	var (
		cfg     config
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same data and requests")
		seconds = flag.Int("seconds", 20, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics over a real served; 1: traced in-process run, per-layer metrics")
		report  = flag.Int("report", 0, "steadiness report: run every workload over seeds 1..N and summarize")
	)
	flag.StringVar(&cfg.served, "served", "", "path of the served binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/perfbench", "directory for data directories, logs and spans")
	flag.StringVar(&cfg.workload, "workload", "", "dash-rw, adhoc-sweep or scan-export")
	flag.Parse()
	cfg.seed, cfg.seconds, cfg.trace = *seed, time.Duration(*seconds)*time.Second, *trace == 1
	if *report > 0 {
		if err := steadiness(&cfg, *report, *seconds); err != nil {
			fail(err)
		}
		return
	}
	if err := run(&cfg); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func run(cfg *config) error {
	if cfg.served == "" && !cfg.trace {
		return fmt.Errorf("--served is required")
	}
	if !slices.Contains(workloadNames, cfg.workload) {
		return unknownWorkload(cfg.workload)
	}
	cfg.runDir = filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.runDir)

	fmt.Println(parallelismProbe())
	genStart := time.Now()
	d := generate(cfg.seed)
	fmt.Printf("data: seed %d, sales %d rows (%d CSV bytes), customers %d rows (%d CSV bytes), generated in %.2f s\n",
		cfg.seed, salesRows, len(d.salesCSV), customerRows, len(d.custCSV), time.Since(genStart).Seconds())
	w, err := newWorkload(cfg.workload, cfg.seed, d)
	if err != nil {
		return err
	}

	t := newTally()
	var m metrics
	if cfg.trace {
		m, err = runTraced(cfg, d, w, t)
	} else {
		m, err = runE2E(cfg, d, w, t)
	}
	if err != nil {
		return err
	}
	t.print()
	out := struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{t.failed() == 0, t.attempted(), t.failed(), m}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// metrics is the result's metric map.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{v, unit}
}

// tally counts attempted and failed operations per kind. A wrong answer
// is a failed operation.
type tally struct {
	mu     sync.Mutex
	kinds  []string
	counts map[string]*[2]int64
}

func newTally() *tally { return &tally{counts: map[string]*[2]int64{}} }

func (t *tally) add(kind string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.counts[kind]
	if !ok {
		c = new([2]int64)
		t.counts[kind] = c
		t.kinds = append(t.kinds, kind)
	}
	c[0]++
	if err != nil {
		if c[1] < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", kind, err)
		}
		c[1]++
	}
}

func (t *tally) attempted() (n int64) {
	for _, c := range t.counts {
		n += c[0]
	}
	return n
}

func (t *tally) failed() (n int64) {
	for _, c := range t.counts {
		n += c[1]
	}
	return n
}

func (t *tally) print() {
	for _, k := range t.kinds {
		c := t.counts[k]
		fmt.Printf("ops %-8s attempted %7d failed %d\n", k, c[0], c[1])
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile is the q-quantile by linear interpolation between order
// statistics.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// parallelismProbe times a CPU-bound loop on one goroutine and the same
// loop twice on two, and reports the effective parallelism: 2.0 on two
// idle cores, 1.0 when the second goroutine gains nothing.
func parallelismProbe() string {
	const iters = 30_000_000
	spin := func() uint64 {
		x := uint64(1)
		for i := 0; i < iters; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		return x
	}
	t0 := time.Now()
	sink := spin()
	one := time.Since(t0)
	t0 = time.Now()
	ch := make(chan uint64, 2) // one slot per goroutine
	for g := 0; g < 2; g++ {
		go func() { ch <- spin() }()
	}
	sink += <-ch + <-ch
	two := time.Since(t0)
	return fmt.Sprintf("parallelism: nproc %d, 1 goroutine %.1f ms, 2 goroutines %.1f ms, effective %.2fx (probe %s)",
		runtime.NumCPU(), ms(one), ms(two), 2*one.Seconds()/two.Seconds(), strconv.FormatUint(sink%10, 10))
}
