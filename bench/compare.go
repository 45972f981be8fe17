package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json that -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict of one (workload, metric) comparison.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// worsening is by what share of a's median b's median is worse, signed:
// positive is worse, whichever direction the metric improves in.
func worsening(medA, medB float64, better string) float64 {
	if medA == 0 {
		return 0
	}
	d := (medB - medA) / medA
	if better == "higher" {
		d = -d
	}
	return d
}

// judge compares the runs of one metric. A spread wider than the bound
// on either side means the runs cannot resolve a change of the bound's
// size: that is reported as unresolved, not as unchanged — unless every
// run of b reads better than every run of a.
func judge(a, b []float64, better string, bound float64) verdict {
	if spread(a) > bound || spread(b) > bound {
		if allBetter(a, b, better) {
			return verdictOK
		}
		return verdictUnresolved
	}
	if worsening(median(a), median(b), better) > bound {
		return verdictRegressed
	}
	return verdictOK
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if better == "higher" && y <= x || better != "higher" && y >= x {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative change, the bound and the verdict. It fails on any
// regression.
func compareFiles(out io.Writer, pathA, pathB, benchPath string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "a: %s (commit %s, seed %d, %d run(s))\nb: %s (commit %s, seed %d, %d run(s))\n",
		pathA, a.Env.Commit, a.Seed, a.Repeat, pathB, b.Env.Commit, b.Seed, b.Repeat)
	fmt.Fprintf(out, "%-15s %-14s %-6s %14s %14s %9s %8s %8s %7s  %s\n",
		"workload", "metric", "unit", "median a", "median b", "change", "spread a", "spread b", "bound", "verdict")
	regressions, unresolved := 0, 0
	for i := range workloads {
		name := workloads[i].name
		for _, m := range bf.EndToEnd {
			va, vb := a.values(name, m.Name, false), b.values(name, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s/%s: missing from one of the result sets", name, m.Name)
			}
			v := judge(va, vb, m.Better, m.Bound)
			switch v {
			case verdictRegressed:
				regressions++
			case verdictUnresolved:
				unresolved++
			}
			change := (median(vb) - median(va)) / median(va)
			fmt.Fprintf(out, "%-15s %-14s %-6s %14.6g %14.6g %+8.2f%% %7.2f%% %7.2f%% %6.1f%%  %s\n",
				name, m.Name, m.Unit, median(va), median(vb), change*100, spread(va)*100, spread(vb)*100, m.Bound*100, v)
		}
		failedA, failedB := sumFailed(a, name), sumFailed(b, name)
		if failedA != 0 || failedB != 0 {
			return fmt.Errorf("%s: %d and %d failed ops; a run with failures is not a measurement", name, failedA, failedB)
		}
	}
	fmt.Fprintf(out, "%d regressed, %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", regressions)
	}
	return nil
}

func sumFailed(rs *resultSet, workload string) (n int64) {
	for _, r := range rs.Runs {
		if r.Workload == workload {
			n += r.Failed
		}
	}
	return n
}
