// Command perfbench is schemr's end-to-end benchmark. It boots the real
// schemr-server on a cached, seeded data directory, drives one workload
// over loopback HTTP from this process with no more connections than the
// host has CPUs, checks every output, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones BENCHMARK.json bounds
// (server CPU for set-up and per search, memory, ranking quality); the line
// before it carries the provenance, sample counts and the other end-to-end
// figures (latency and throughput of searches, views and imports, wall
// set-up time) under "ungated". With --trace 1 the metrics are the
// per-layer ones, from /metrics deltas, the search replies' took_ms and a
// traced in-process replay of the same request stream.
//
// Usage (from the repository root; perfbench/run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload design-search --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }

// options is the parsed command line.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	root      string
	serverBin string
	work      string
}

// parseArgs parses and validates the command line: unknown workloads, a
// missing seed, a non-positive duration and a trace other than 0 or 1 are
// errors.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 0, "workload seed (required)")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository checkout")
	fs.StringVar(&o.serverBin, "server", "", "schemr-server binary (required)")
	fs.StringVar(&o.work, "work", "", "scratch directory for caches and run data (required)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if _, ok := specs[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	switch {
	case !set["seed"]:
		return o, fmt.Errorf("missing --seed")
	case o.seconds <= 0:
		return o, fmt.Errorf("--seconds must be positive, got %d", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	case o.serverBin == "" || o.work == "":
		return o, fmt.Errorf("--server and --work are required")
	}
	return o, nil
}

func workloadNames() []string {
	var names []string
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		logf("%v", err)
		os.Exit(2)
	}
	res, err := runBenchmark(runConfig{
		spec: specs[o.workload], seed: o.seed, seconds: o.seconds, trace: o.trace == 1,
		conns: runtime.NumCPU(), serverBin: o.serverBin, work: o.work, root: o.root,
	})
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	metrics := layerMetrics
	if o.trace == 0 {
		metrics = endToEndMetrics
	}
	reported, ungated := split(metrics(res), o.trace == 0)
	detail := map[string]any{
		"provenance": provenance(o, res),
		"detail":     runDetail(res),
		"ungated":    ungated,
	}
	if err := json.NewEncoder(os.Stdout).Encode(detail); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	for _, f := range res.log.failures {
		logf("failure: %s", f)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.log.failed == 0, res.log.attempted, res.log.failed, reported}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}
