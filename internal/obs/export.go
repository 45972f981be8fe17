package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// ExportChild is one sample of an exported family. Labels are positional,
// matching the family's LabelNames. Counters and gauges carry Value;
// histograms carry per-bucket (non-cumulative) counts plus Sum/Count so a
// downstream aggregator can merge buckets and recompute quantiles — the
// Prometheus text format and the flat JSON snapshot both lose that detail.
type ExportChild struct {
	Labels  []string `json:"labels,omitempty"`
	Value   float64  `json:"value,omitempty"`
	Buckets []int64  `json:"buckets,omitempty"` // len(Bounds)+1; +Inf overflow last
	Sum     float64  `json:"sum,omitempty"`
	Count   int64    `json:"count,omitempty"`
}

// ExportFamily is the full-fidelity form of one metric family, the unit the
// fleet aggregator scrapes (/metrics?format=export) and merges.
type ExportFamily struct {
	Name       string        `json:"name"`
	Help       string        `json:"help,omitempty"`
	Kind       string        `json:"kind"`
	LabelNames []string      `json:"label_names,omitempty"`
	Bounds     []float64     `json:"bounds,omitempty"` // histogram families only
	Children   []ExportChild `json:"children"`
}

// Export captures every family with at least one child, in registration
// order, evaluating func metrics at call time. It is the only walk over a
// registry: the Prometheus text, the export JSON, Snapshot and the fleet
// merge all render from its output.
func (r *Registry) Export() []ExportFamily {
	var out []ExportFamily
	for _, f := range r.sortedFamilies() {
		if ef, ok := f.export(); ok {
			out = append(out, ef)
		}
	}
	return out
}

func (f *family) export() (ExportFamily, bool) {
	f.mu.RLock()
	keys := append([]string(nil), f.keys...)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.RUnlock()
	if len(keys) == 0 {
		return ExportFamily{}, false
	}
	ef := ExportFamily{
		Name:       f.name,
		Help:       f.help,
		Kind:       f.kind.String(),
		LabelNames: f.labelNames,
		Children:   make([]ExportChild, 0, len(keys)),
	}
	for i, key := range keys {
		var c ExportChild
		if len(f.labelNames) > 0 {
			// Positional, one value per name: a lone empty value is a
			// value, not an unlabeled child.
			c.Labels = strings.Split(key, labelSep)
		}
		switch m := children[i].(type) {
		case *Counter:
			c.Value = float64(m.Value())
		case *Gauge:
			c.Value = m.Value()
		case funcMetric:
			c.Value = m.fn()
		case *Histogram:
			if ef.Bounds == nil {
				ef.Bounds = m.bounds
			}
			c.Buckets = m.bucketCounts()
			c.Sum = m.Sum()
			c.Count = m.Count()
		}
		ef.Children = append(ef.Children, c)
	}
	return ef, true
}

// bucketCounts loads the per-bucket counts (overflow bucket last).
func (h *Histogram) bucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// WriteExport renders families as indented JSON (the ?format=export
// exposition).
func WriteExport(w io.Writer, fams []ExportFamily) error {
	if fams == nil {
		fams = []ExportFamily{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fams)
}

// ReadExport parses a WriteExport document.
func ReadExport(r io.Reader) ([]ExportFamily, error) {
	var fams []ExportFamily
	if err := json.NewDecoder(r).Decode(&fams); err != nil {
		return nil, fmt.Errorf("obs: parsing export: %w", err)
	}
	return fams, nil
}

// WritePrometheus renders the registry in the Prometheus text format.
func (r *Registry) WritePrometheus(w io.Writer) error { return WriteFamiliesPrometheus(w, r.Export()) }

// WriteFamiliesPrometheus renders exported families in the Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE headers, one line per
// sample, histogram children expanded to cumulative _bucket/_sum/_count
// series plus derived _p50/_p95/_p99 gauges recomputed from the buckets.
// It is the only Prometheus writer: a node's /metrics and the fleet's
// merged /metrics are both this function over []ExportFamily.
func WriteFamiliesPrometheus(w io.Writer, fams []ExportFamily) error {
	for _, ef := range fams {
		if err := ef.writePrometheus(w); err != nil {
			return err
		}
	}
	return nil
}

func (ef ExportFamily) writePrometheus(w io.Writer) error {
	if len(ef.Children) == 0 {
		return nil
	}
	if ef.Help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", ef.Name, ef.Help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", ef.Name, ef.Kind); err != nil {
		return err
	}
	for _, c := range ef.Children {
		if ef.Kind == KindHistogram.String() {
			if err := writeBucketsPrometheus(w, ef, c); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", ef.Name, promLabels(ef.LabelNames, c.Labels), formatFloat(c.Value)); err != nil {
			return err
		}
	}
	if ef.Kind == KindHistogram.String() {
		return ef.writeQuantiles(w)
	}
	return nil
}

func writeBucketsPrometheus(w io.Writer, ef ExportFamily, c ExportChild) error {
	var cum int64
	for i, bound := range ef.Bounds {
		if i < len(c.Buckets) {
			cum += c.Buckets[i]
		}
		labels := promLabels(ef.LabelNames, c.Labels, "le", formatFloat(bound))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", ef.Name, labels, cum); err != nil {
			return err
		}
	}
	if len(c.Buckets) == len(ef.Bounds)+1 {
		cum += c.Buckets[len(ef.Bounds)]
	}
	infLabels := promLabels(ef.LabelNames, c.Labels, "le", "+Inf")
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", ef.Name, infLabels, cum); err != nil {
		return err
	}
	base := promLabels(ef.LabelNames, c.Labels)
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", ef.Name, base, formatFloat(c.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", ef.Name, base, c.Count)
	return err
}

// quantileGauges are the scrape-time percentile estimates derived from each
// histogram family's buckets (linear interpolation, see BucketQuantile).
var quantileGauges = []struct {
	suffix string
	q      float64
}{
	{"p50", 0.50},
	{"p95", 0.95},
	{"p99", 0.99},
}

// writeQuantiles emits one derived gauge family per quantile
// (<name>_p50/_p95/_p99) for every child of a histogram family.
func (ef ExportFamily) writeQuantiles(w io.Writer) error {
	for _, qg := range quantileGauges {
		name := ef.Name + "_" + qg.suffix
		if _, err := fmt.Fprintf(w, "# HELP %s Scrape-time %s estimate from %s buckets.\n", name, qg.suffix, ef.Name); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", name); err != nil {
			return err
		}
		for _, c := range ef.Children {
			q := BucketQuantile(ef.Bounds, c.Buckets, qg.q)
			if _, err := fmt.Fprintf(w, "%s%s %s\n", name, promLabels(ef.LabelNames, c.Labels), formatFloat(q)); err != nil {
				return err
			}
		}
	}
	return nil
}

// BucketQuantile estimates the q-quantile from explicit per-bucket counts
// (overflow bucket last, as exported), the same linear-interpolation scheme
// Histogram.Quantile uses. It is what lets a fleet aggregator recompute
// p50/p99 from bucket-wise merged histograms instead of averaging per-node
// quantiles (which is meaningless).
func BucketQuantile(bounds []float64, counts []int64, q float64) float64 {
	if len(bounds) == 0 || len(counts) != len(bounds)+1 {
		return 0
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q >= 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range counts {
		n := float64(counts[i])
		if cum+n < rank || n == 0 {
			cum += n
			continue
		}
		if i == len(bounds) {
			// Overflow bucket: clamp to the highest finite bound.
			return bounds[len(bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = bounds[i-1]
		}
		return lower + (bounds[i]-lower)*((rank-cum)/n)
	}
	return bounds[len(bounds)-1]
}
