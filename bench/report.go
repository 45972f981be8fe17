package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// resultSet is a result file: the box, the settings and every run. It
// is what -all writes, what -compare reads, and what is committed as
// results/seed.json so the trajectory starts at the seed commit.
type resultSet struct {
	Env     envInfo      `json:"env"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Repeat  int          `json:"repeat"`
	Runs    []*runResult `json:"runs"`
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// values collects one metric of one workload over a set's runs.
func (rs *resultSet) values(workload, name string, trace bool) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// runAll runs every workload repeat times, each run in a process of its
// own (so set-up time and peak RSS are that run's alone), prints the
// table, and optionally writes the result set.
func runAll(out io.Writer, f cliFlags) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rs := &resultSet{Env: readEnv(f.outDir), Seed: f.seed, Seconds: f.seconds, Repeat: f.repeat}
	for i := range workloads {
		w := &workloads[i]
		for k := 0; k < f.repeat; k++ {
			args := []string{
				"-child", "-workload", w.name, "-seed", fmt.Sprint(f.seed + int64(k)),
				"-seconds", fmt.Sprint(f.seconds), "-out", f.outDir,
			}
			if f.trace {
				args = append(args, "-trace", "1")
			}
			cmd := exec.Command(self, args...)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (seed %d): %w", w.name, f.seed+int64(k), err)
			}
			// The child's last line is its full result; anything before
			// it is the trace pass's report.
			text := strings.TrimRight(stdout.String(), "\n")
			cut := strings.LastIndexByte(text, '\n') + 1
			if _, err := io.WriteString(out, text[:cut]); err != nil {
				return err
			}
			var r runResult
			if err := json.Unmarshal([]byte(text[cut:]), &r); err != nil {
				return fmt.Errorf("%s: reading child result: %w", w.name, err)
			}
			rs.Runs = append(rs.Runs, &r)
		}
	}
	printTable(out, rs, f.trace)
	if f.resultFile == "" {
		return nil
	}
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(f.resultFile, append(data, '\n'), 0o644)
}

// tableRow is a line of the table that is not a metric of BENCHMARK.json.
type tableRow struct {
	label, unit string
	get         func(*runResult) float64
}

// printTable prints every metric of every workload by name and unit:
// the median over the set's runs, and for latency percentiles the
// sample count they rest on.
func printTable(out io.Writer, rs *resultSet, trace bool) {
	defs, pass := endToEndMetrics, "end-to-end"
	if trace {
		defs, pass = perLayerMetrics, "per-layer"
	}
	fmt.Fprintf(out, "\n%s, %d run(s) per workload, %.3g s windows, nproc=%d GOMAXPROCS=%d %s commit=%s fs=%s\n",
		pass, rs.Repeat, rs.Seconds,
		rs.Env.NProc, rs.Env.GOMAXPROCS, rs.Env.GoVersion, rs.Env.Commit, rs.Env.FSType)
	fmt.Fprintf(out, "%-34s %-6s", "metric", "unit")
	for i := range workloads {
		fmt.Fprintf(out, " %15s", workloads[i].name)
	}
	fmt.Fprintln(out)
	for _, d := range defs {
		fmt.Fprintf(out, "%-34s %-6s", d.name, d.unit)
		for i := range workloads {
			fmt.Fprintf(out, " %15.6g", median(rs.values(workloads[i].name, d.name, trace)))
		}
		fmt.Fprintln(out)
	}
	rows := []tableRow{
		{"ops in window", "count", func(r *runResult) float64 { return float64(r.Ops) }},
		{"latency samples", "count", func(r *runResult) float64 { return float64(r.Samples) }},
		{"fail_ratio", "ratio", func(r *runResult) float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }},
	}
	if !trace {
		// Recorded with every run but not gated: README.md says why.
		rows = append(rows, []tableRow{
			{"cpu_us_per_op (not gated)", "us", func(r *runResult) float64 { return r.CPUUSPerOp }},
			{"peak_rss_mb (not gated)", "MB", func(r *runResult) float64 { return r.PeakRSSMB }},
			{"whole-window p99 (not gated)", "us", func(r *runResult) float64 { return r.TailUS.P99 }},
			{"whole-window p99.9 (not gated)", "us", func(r *runResult) float64 { return r.TailUS.P999 }},
			{"whole-window max (not gated)", "us", func(r *runResult) float64 { return r.TailUS.Max }},
		}...)
	}
	for _, row := range rows {
		fmt.Fprintf(out, "%-34s %-6s", row.label, row.unit)
		for i := range workloads {
			var vs []float64
			for _, r := range rs.Runs {
				if r.Workload == workloads[i].name && r.Trace == trace {
					vs = append(vs, row.get(r))
				}
			}
			fmt.Fprintf(out, " %15.6g", median(vs))
		}
		fmt.Fprintln(out)
	}
}

// printTraceReport is the human-readable output of one trace pass: the
// ladder, the per-layer metrics, the waterfall and the bypass checks.
func printTraceReport(out io.Writer, r *runResult, lad *ladder, opMeanUS, opP50US float64, spans *spanLog, spanFile string) {
	fmt.Fprintf(out, "== %s: trace pass (seed %d, %d ops in the traced window)\n", r.Workload, r.Seed, r.Ops)
	fmt.Fprintln(out, "ladder (untraced rungs; mean and p50 per call, µs):")
	for _, row := range []struct {
		name string
		r    rung
	}{
		{"workload op", lad.top},
		{"Service.RequestToken", lad.token},
		{"leasetree.Tree.Update", lad.tree},
		{"RenewLease, wire over RA-TLS", lad.ratls},
		{"RenewLease, wire over Insecure", lad.insecure},
		{"RenewLease, in-process (cluster)", lad.inproc},
		{"RenewLease, in-process (standalone)", lad.alone.renew},
	} {
		if row.r.ops > 0 {
			fmt.Fprintf(out, "  %-36s mean %12.3f  p50 %12.3f  (%d calls)\n", row.name, row.r.meanUS, row.r.p50US, row.r.ops)
		}
	}
	if lad.tree.ops > 0 {
		fmt.Fprintf(out, "  tree rung: %.4f evictions and %.4f restores per update\n", lad.treeEvictionsPerUpdate, lad.treeRestoresPerUpdate)
	}
	fmt.Fprintf(out, "  store.Logger.Append seam: %.4f appends and %.1f B per renewal, mean %.1f µs\n",
		lad.alone.appendsPerOp, lad.alone.bytesPerOp, lad.alone.appendMeanUS)

	fmt.Fprintln(out, "per-layer metrics:")
	for _, d := range perLayerMetrics {
		fmt.Fprintf(out, "  %-34s %16.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}

	fmt.Fprintf(out, "waterfall (µs per op; traced window: mean %.3f, p50 %.3f):\n", opMeanUS, opP50US)
	for _, row := range r.Waterfall {
		share := 0.0
		if opMeanUS != 0 {
			share = row.US / opMeanUS * 100
		}
		fmt.Fprintf(out, "  %-14s %14.3f  %6.1f%%\n", row.Layer, row.US, share)
	}

	all, dropped := spans.snapshot()
	stats := selfTimes(all)
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "seam spans (%d kept, %d beyond the cap; written to %s):\n", len(all), dropped, spanFile)
	for _, n := range names {
		s := stats[n]
		fmt.Fprintf(out, "  %-34s n=%-7d mean %12.3f µs  self %12.3f µs\n", n, s.Count, s.MeanNS/1e3, s.SelfNS/1e3)
	}

	fmt.Fprintln(out, "bypass predictions:")
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(out, "  %-6s %s (%s)\n", verdict, c.Name, c.Detail)
	}
}
