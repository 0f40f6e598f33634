// Command perfbench is the repository benchmark. It runs one workload
// against the BEAS engine for a fixed wall-clock window, checks every
// answer the engine gives, prints a readable report, and ends its standard
// output with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run measures an untraced and then a traced window and reports the
// per-layer metrics derived from the spans. See README.md for the
// workloads, the metrics and how to run it (normally through run.sh).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() { os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr)) }

// mainCode parses the flags, runs the workload and prints the result line.
// It returns 0 on a correct run, 1 when a check failed (the result line is
// still printed) and 2 when the run could not be made.
func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.Workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed; every input is generated from it")
	fs.Float64Var(&cfg.Seconds, "seconds", 10, "length of each measured window")
	trace := fs.Int("trace", 0, "1 adds a traced window and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.Trace = *trace == 1
	cfg.TmpRoot = ".bench_build"
	cfg.TraceOut = filepath.Join(".bench_build", "perfbench-trace")
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	cfg.Log = stdout

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	line, err := res.jsonLine()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, line)
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// result is what one run reports.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
}

// jsonLine renders the result as the benchmark's final output line.
func (r *result) jsonLine() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.Metrics))
	for _, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		ms[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	return string(b), err
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
