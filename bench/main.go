// Command bench is the repository's benchmark: five workloads over the
// real renewal path (slmanager → sllocal and its lease tree → wire over
// RA-TLS → a 2-shard cluster with WAL, followers and audit chain), six
// end-to-end metrics, and an outside-in per-layer trace. It claims no
// gain; it is the harness later changes state their gains with.
//
//	go run ./bench -workload renew-durable -seed 1 -seconds 20 -trace 0
//	go run ./bench -all [-trace 1] [-repeat 3] [-o results.json]
//	go run ./bench -smoke
//	go run ./bench -compare a.json b.json
//
// See README.md in this directory for the workloads, the metrics and how
// they are expected to interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// cliFlags is the parsed command line.
type cliFlags struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	outDir     string
	all        bool
	repeat     int
	resultFile string
	smoke      bool
	compare    bool
	benchFile  string
	child      bool
	args       []string
}

func main() {
	var f cliFlags
	var trace int
	flag.StringVar(&f.workload, "workload", "", "run one workload in this process and print its result as the last line")
	flag.Int64Var(&f.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&f.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: run the per-layer trace pass instead of the end-to-end pass")
	flag.StringVar(&f.outDir, "out", "bench/out", "directory for state, span files and scratch (created; inside the checkout)")
	flag.BoolVar(&f.all, "all", false, "run every workload, each in a fresh process, and print a table")
	flag.IntVar(&f.repeat, "repeat", 1, "with -all: runs per workload (seeds seed, seed+1, ...)")
	flag.StringVar(&f.resultFile, "o", "", "with -all: also write the result set to this file")
	flag.BoolVar(&f.smoke, "smoke", false, "run every workload at about 1/50 size, both passes, with the correctness gate on")
	flag.BoolVar(&f.compare, "compare", false, "compare two result sets: -compare a.json b.json")
	flag.StringVar(&f.benchFile, "benchmark", "BENCHMARK.json", "with -compare: where the bounds are read from")
	flag.BoolVar(&f.child, "child", false, "internal, set by -all: print the full result as the last line")
	flag.Parse()
	f.trace = trace != 0
	f.args = flag.Args()
	if err := f.run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func (f cliFlags) run(out io.Writer) error {
	if f.compare {
		if len(f.args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(out, f.args[0], f.args[1], f.benchFile)
	}
	if f.seconds <= 0 || f.repeat < 1 {
		return fmt.Errorf("-seconds and -repeat must be positive")
	}
	if err := os.MkdirAll(f.outDir, 0o755); err != nil {
		return err
	}
	switch {
	case f.smoke:
		return runSmoke(out, f.outDir, f.seed)
	case f.all:
		return runAll(out, f)
	case f.workload != "":
		w, err := workloadByName(f.workload)
		if err != nil {
			return err
		}
		rc := runConfig{w: w, seed: f.seed, seconds: f.seconds, outDir: f.outDir, setups: setupsPerRun}
		var res *runResult
		if f.trace {
			res, err = runTrace(rc, out)
		} else {
			res, err = runEndToEnd(rc)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if f.child {
			return json.NewEncoder(out).Encode(res)
		}
		return printDriverLine(out, res)
	default:
		flag.Usage()
		return fmt.Errorf("one of -workload, -all, -smoke or -compare is required")
	}
}

// printDriverLine prints the one JSON object the benchmark contract
// asks for as the last line of standard output. A run only gets here
// through the correctness gate, so correct is true by construction.
func printDriverLine(out io.Writer, res *runResult) error {
	return json.NewEncoder(out).Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, res.Attempted, res.Failed, res.Metrics})
}

// smokeScale shrinks a workload to about 1/50 of its size: the same
// shape, a population that sets up in a fraction of a second.
func smokeScale(w workload) workload {
	if w.stack.slidsPerShard > 8 {
		w.stack.slidsPerShard = 8
	}
	if w.ladderHolders > 8 {
		w.ladderHolders = 8
	}
	if w.stack.appLicensesPerShard > 16 {
		w.stack.appLicensesPerShard = 16
	}
	w.warmOps = w.warmOps/50 + 1
	return w
}

// runSmoke runs both passes of every workload at smoke size in this
// process: it exists so that the tier-1 tests keep the harness
// compiling against the program's APIs and keep the correctness gate
// wired, not to measure anything.
func runSmoke(out io.Writer, outDir string, seed int64) error {
	for i := range workloads {
		w := smokeScale(workloads[i])
		rc := runConfig{w: &w, seed: seed, seconds: 0.1, outDir: outDir, setups: 1}
		res, err := runEndToEnd(rc)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		for _, d := range endToEndMetrics {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				return fmt.Errorf("%s: end-to-end metric %s missing or in the wrong unit", w.name, d.name)
			}
		}
		rc.seconds = 0.4
		traced, err := runTrace(rc, io.Discard)
		if err != nil {
			return fmt.Errorf("%s trace pass: %w", w.name, err)
		}
		for _, d := range perLayerMetrics {
			if m, ok := traced.Metrics[d.name]; !ok || m.Unit != d.unit {
				return fmt.Errorf("%s: per-layer metric %s missing or in the wrong unit", w.name, d.name)
			}
		}
		fmt.Fprintf(out, "smoke %-15s ok: %d ops end-to-end, %d traced, gate passed\n", w.name, res.Ops, traced.Ops)
	}
	return nil
}
