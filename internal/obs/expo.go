package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// promLabels renders `{k="v",...}` for a child's positional label values
// plus an optional extra pair (the histogram's le), or "" when there are
// none.
func promLabels(names, values []string, extra ...string) string {
	var pairs []string
	for i, n := range names {
		if i < len(values) {
			pairs = append(pairs, fmt.Sprintf("%s=%q", n, values[i]))
		}
	}
	if len(extra) == 2 {
		pairs = append(pairs, fmt.Sprintf("%s=%q", extra[0], extra[1]))
	}
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// maxExactInt is 2^53, the largest magnitude below which every integer has
// an exact float64.
const maxExactInt = 1 << 53

// formatFloat renders floats compactly: integral values up to 2^53 print
// as integers (a counter reads as the int64 it counts), the rest in the
// shortest round-tripping form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) <= maxExactInt {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Snapshot is a flattened view of a registry: one entry per sample, keyed
// by Key(name, labels). Histograms flatten to <name>_count and <name>_sum.
type Snapshot map[string]float64

// Snapshot captures the registry's current values (func metrics are
// evaluated): Flatten of Export.
func (r *Registry) Snapshot() Snapshot { return Flatten(r.Export()) }

// Flatten turns exported families — a registry's own, or ones scraped
// from a node's /metrics?format=export — into a Snapshot.
func Flatten(fams []ExportFamily) Snapshot {
	snap := make(Snapshot)
	for _, ef := range fams {
		for _, c := range ef.Children {
			labels := labelMap(ef.LabelNames, c.Labels)
			if ef.Kind == KindHistogram.String() {
				snap[Key(ef.Name+"_count", labels)] = float64(c.Count)
				snap[Key(ef.Name+"_sum", labels)] = c.Sum
				continue
			}
			snap[Key(ef.Name, labels)] = c.Value
		}
	}
	return snap
}

func labelMap(names, values []string) map[string]string {
	if len(names) == 0 || len(values) == 0 {
		return nil
	}
	m := make(map[string]string, len(names))
	for i, n := range names {
		if i < len(values) {
			m[n] = values[i]
		}
	}
	return m
}

// Delta returns s - prev per key, dropping zero deltas. Keys absent from
// prev count from zero.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := make(Snapshot)
	for k, v := range s {
		if d := v - prev[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// Get returns the sample for Key(name, labels), or 0 when absent.
func (s Snapshot) Get(name string, labels map[string]string) float64 {
	return s[Key(name, labels)]
}
