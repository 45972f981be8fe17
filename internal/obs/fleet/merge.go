// Package fleet aggregates many nodes' observability planes into one:
// it scrapes every node's full-fidelity metric exposition (over HTTP or
// the attested wire channel), merges the families under per-kind rules
// — counters sum, gauges follow a sum/max/min rule table, histograms
// merge bucket-wise so fleet quantiles are recomputed from real counts
// — stitches cross-node traces by TraceID, and stitches the nodes'
// event rings into one timeline. One aggregator endpoint then answers for the whole fleet.
package fleet

import (
	"sort"

	"repro/internal/obs"
)

// GaugeRule says how one gauge family combines across nodes.
type GaugeRule int

const (
	// RuleSum adds the nodes' values — right for sizes and backlogs
	// (bytes of lag, snapshot bytes) where the fleet total is the sum of
	// parts. The default.
	RuleSum GaugeRule = iota
	// RuleMax keeps the highest value — right for high-water marks and
	// versions (a shard's epoch is whatever the newest leader says).
	RuleMax
	// RuleMin keeps the lowest value — right for "weakest link" gauges.
	RuleMin
)

// DefaultGaugeRules is the built-in rule table; families not listed
// follow RuleSum. Callers may override per family via MergeOptions.
func DefaultGaugeRules() map[string]GaugeRule {
	return map[string]GaugeRule{
		"cluster_shard_epoch":    RuleMax, // an epoch is a version, not a quantity
		"store_recovery_seconds": RuleMax, // slowest recovery bounds the fleet
	}
}

// DefaultRekeyLabels are the label names that mark a family as carrying
// per-entity series (one child per license, client, or session). Such
// series must not be summed across nodes blindly — after a failover two
// nodes may both report license L — so the merger re-keys them by
// appending a "node" label instead.
func DefaultRekeyLabels() []string { return []string{"license", "client", "slid"} }

// MergeOptions tunes MergeSnapshots.
type MergeOptions struct {
	// GaugeRules overrides (or extends) DefaultGaugeRules per family.
	GaugeRules map[string]GaugeRule
	// RekeyLabels overrides DefaultRekeyLabels (nil: the default; an
	// explicit empty slice disables re-keying).
	RekeyLabels []string
}

func (o MergeOptions) gaugeRule(family string) GaugeRule {
	if r, ok := o.GaugeRules[family]; ok {
		return r
	}
	if r, ok := DefaultGaugeRules()[family]; ok {
		return r
	}
	return RuleSum
}

// MergeResult is MergeSnapshots' output: the merged families (sorted by
// name) and, per family, how many node contributions had to be dropped
// because they disagreed structurally with the rest of the fleet or were
// malformed.
type MergeResult struct {
	Families  []obs.ExportFamily
	Conflicts map[string]int64
}

// mergedFamily accumulates one family across nodes.
type mergedFamily struct {
	ef       obs.ExportFamily
	rekeyed  bool
	children map[string]int // label key -> index into ef.Children
}

// MergeSnapshots merges per-node export snapshots into one fleet-wide
// family set. Counters sum; gauges follow the rule table; histograms
// with identical bounds merge bucket-wise (so quantiles derived from the
// result reflect real fleet-wide counts, not averaged per-node
// quantiles); per-entity families (see RekeyLabels) gain a "node" label
// instead of merging. Structural disagreements — kind or label-name or
// bucket-bound mismatches between nodes — drop the offending node's
// contribution, and a malformed child (label or bucket count not matching
// its family) is dropped alone; both are counted in Conflicts. Node names
// are processed in sorted order, so the output is deterministic.
func MergeSnapshots(nodes map[string][]obs.ExportFamily, opts MergeOptions) MergeResult {
	rekeySet := make(map[string]bool)
	rekeyLabels := opts.RekeyLabels
	if rekeyLabels == nil {
		rekeyLabels = DefaultRekeyLabels()
	}
	for _, l := range rekeyLabels {
		rekeySet[l] = true
	}

	names := make([]string, 0, len(nodes))
	for name := range nodes {
		names = append(names, name)
	}
	sort.Strings(names)

	merged := make(map[string]*mergedFamily)
	var order []string
	conflicts := make(map[string]int64)

	for _, node := range names {
		for _, ef := range nodes[node] {
			mf, ok := merged[ef.Name]
			if !ok {
				mf = newMergedFamily(ef, rekeySet)
				merged[ef.Name] = mf
				order = append(order, ef.Name)
			} else if !compatible(mf.ef, ef) {
				conflicts[ef.Name]++
				continue
			}
			if dropped := mergeChildren(mf, ef, node, opts); dropped > 0 {
				conflicts[ef.Name] += dropped
			}
		}
	}

	sort.Strings(order)
	out := make([]obs.ExportFamily, 0, len(order))
	for _, name := range order {
		out = append(out, merged[name].ef)
	}
	return MergeResult{Families: out, Conflicts: conflicts}
}

func newMergedFamily(ef obs.ExportFamily, rekeySet map[string]bool) *mergedFamily {
	mf := &mergedFamily{
		ef: obs.ExportFamily{
			Name:       ef.Name,
			Help:       ef.Help,
			Kind:       ef.Kind,
			LabelNames: append([]string(nil), ef.LabelNames...),
			Bounds:     append([]float64(nil), ef.Bounds...),
		},
		children: make(map[string]int),
	}
	for _, l := range ef.LabelNames {
		if rekeySet[l] {
			mf.rekeyed = true
			mf.ef.LabelNames = append(mf.ef.LabelNames, "node")
			break
		}
	}
	return mf
}

// compatible reports whether a node's copy of a family is structurally
// mergeable with the fleet's: same kind, same label names, and (for
// histograms) identical bucket bounds — merging buckets with different
// bounds would fabricate counts.
func compatible(have obs.ExportFamily, ef obs.ExportFamily) bool {
	if have.Kind != ef.Kind {
		return false
	}
	want := have.LabelNames
	if len(want) > 0 && want[len(want)-1] == "node" && len(want) == len(ef.LabelNames)+1 {
		want = want[:len(want)-1] // re-keyed family: compare pre-rekey names
	}
	if len(want) != len(ef.LabelNames) {
		return false
	}
	for i := range want {
		if want[i] != ef.LabelNames[i] {
			return false
		}
	}
	if len(have.Bounds) != len(ef.Bounds) {
		return false
	}
	for i := range have.Bounds {
		if have.Bounds[i] != ef.Bounds[i] {
			return false
		}
	}
	return true
}

// mergeChildren folds one node's children into mf and returns how many it
// dropped as malformed: a child must carry one label value per label name
// and, in a histogram, one bucket per bound plus the overflow bucket.
// Exports arrive from other processes, so their shape is checked here,
// not assumed.
func mergeChildren(mf *mergedFamily, ef obs.ExportFamily, node string, opts MergeOptions) (dropped int64) {
	for _, c := range ef.Children {
		if len(c.Labels) != len(ef.LabelNames) ||
			(ef.Kind == "histogram" && len(c.Buckets) != len(ef.Bounds)+1) {
			dropped++
			continue
		}
		labels := append([]string(nil), c.Labels...)
		if mf.rekeyed {
			labels = append(labels, node)
		}
		key := obs.LabelKey(labels)
		idx, ok := mf.children[key]
		if !ok {
			nc := c
			nc.Labels = labels
			nc.Buckets = append([]int64(nil), c.Buckets...)
			mf.children[key] = len(mf.ef.Children)
			mf.ef.Children = append(mf.ef.Children, nc)
			continue
		}
		dst := &mf.ef.Children[idx]
		switch mf.ef.Kind {
		case "counter":
			dst.Value += c.Value
		case "gauge":
			switch opts.gaugeRule(mf.ef.Name) {
			case RuleMax:
				if c.Value > dst.Value {
					dst.Value = c.Value
				}
			case RuleMin:
				if c.Value < dst.Value {
					dst.Value = c.Value
				}
			default:
				dst.Value += c.Value
			}
		case "histogram":
			for i := range c.Buckets {
				dst.Buckets[i] += c.Buckets[i]
			}
			dst.Sum += c.Sum
			dst.Count += c.Count
		}
	}
	return dropped
}
