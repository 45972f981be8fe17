package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/ratls"
	"repro/internal/wire"
)

// Target is one node the aggregator scrapes. Exactly one transport is
// used: URL (plain HTTP against the node's obs endpoint) when set,
// otherwise Addr + Channel (the obs_pull RPC over the node's attested
// wire listener — metrics leave the enclave boundary only through
// RA-TLS, the same guarantee client traffic gets).
type Target struct {
	// Name identifies the node in merged output and self-metrics.
	Name string
	// URL is the node's HTTP obs base URL (e.g. "http://127.0.0.1:9101").
	URL string
	// Addr is the node's wire listen address, for obs_pull scraping.
	Addr string
	// Channel is the wire channel config used with Addr (nil: insecure).
	Channel *ratls.Config
}

// DefaultInterval paces Start's background scrape loop.
const DefaultInterval = time.Second

// DefaultTimeout bounds one target scrape.
const DefaultTimeout = 5 * time.Second

// Options configures an Aggregator.
type Options struct {
	// Targets are the nodes to scrape.
	Targets []Target
	// Interval paces the Start loop (0: DefaultInterval).
	Interval time.Duration
	// Timeout bounds each per-target scrape (0: DefaultTimeout).
	Timeout time.Duration
	// Merge tunes the family merge (gauge rule table, re-key labels).
	Merge MergeOptions
	// Now is the clock (nil: time.Now). Tests inject a fixed clock to
	// make staleness gauges deterministic.
	Now func() time.Time
	// Logf receives scrape errors (nil: silent).
	Logf func(string, ...any)
}

// nodeState is the aggregator's memory of one target: the last good
// snapshot (kept through scrape failures, so staleness is measurable),
// when it was taken, and the error tally.
type nodeState struct {
	fams    []obs.ExportFamily
	at      time.Time
	up      bool
	lastErr string
	errs    int64
}

// Aggregator scrapes a fleet of nodes and re-exposes their merged
// observability plane: one /metrics (counters summed, gauges ruled,
// histogram buckets merged so fleet quantiles are real), one /trace
// that stitches a TraceID across every node, one /events timeline of
// every node's event ring, plus fleet self-metrics (scrape errors,
// staleness, node liveness) so the aggregator's own blind spots are
// visible.
type Aggregator struct {
	opts  Options
	httpc *http.Client

	mu    sync.Mutex
	nodes map[string]*nodeState

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds an aggregator over targets; call ScrapeOnce for a one-shot
// snapshot or Start for continuous polling.
func New(opts Options) *Aggregator {
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	a := &Aggregator{
		opts:  opts,
		httpc: &http.Client{Timeout: opts.Timeout},
		nodes: make(map[string]*nodeState),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for _, t := range opts.Targets {
		a.nodes[t.Name] = &nodeState{}
	}
	return a
}

func (a *Aggregator) logf(format string, args ...any) {
	if a.opts.Logf != nil {
		a.opts.Logf(format, args...)
	}
}

// ScrapeOnce polls every target concurrently and folds the results into
// the aggregator's state. A failing target keeps its previous snapshot
// (its staleness gauge grows) and bumps its error counter; the first
// error is returned for one-shot callers that want a verdict.
func (a *Aggregator) ScrapeOnce() error {
	var wg sync.WaitGroup
	errs := make([]error, len(a.opts.Targets))
	for i, t := range a.opts.Targets {
		wg.Add(1)
		go func(i int, t Target) {
			defer wg.Done()
			raw, err := a.fetch(t, partMetrics, "")
			var fams []obs.ExportFamily
			if err == nil {
				fams, err = obs.ReadExport(bytes.NewReader(raw))
			}
			a.mu.Lock()
			st := a.nodes[t.Name]
			if err != nil {
				st.errs++
				st.up = false
				st.lastErr = err.Error()
				errs[i] = fmt.Errorf("fleet: scraping %s: %w", t.Name, err)
			} else {
				st.fams, st.at, st.up, st.lastErr = fams, a.opts.Now(), true, ""
			}
			a.mu.Unlock()
			if err != nil {
				a.logf("fleet: scrape %s: %v", t.Name, err)
			}
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Start launches the background scrape loop (one immediate scrape, then
// every Interval). Stop ends it.
func (a *Aggregator) Start() {
	go func() {
		defer close(a.done)
		_ = a.ScrapeOnce()
		tick := time.NewTicker(a.opts.Interval)
		defer tick.Stop()
		for {
			select {
			case <-a.stop:
				return
			case <-tick.C:
				_ = a.ScrapeOnce()
			}
		}
	}()
}

// Stop ends the Start loop. Safe to call without Start (the background
// done channel is only waited on after a Start).
func (a *Aggregator) Stop() {
	a.stopOnce.Do(func() {
		close(a.stop)
		select {
		case <-a.done:
		case <-time.After(a.opts.Timeout + a.opts.Interval):
		}
	})
}

// part names one section of a node's exposition.
type part int

const (
	partMetrics part = iota // export JSON ([]obs.ExportFamily)
	partTrace               // obs.TraceDump, filtered by trace ID
	partEvents              // obs.TraceDump of the event ring
)

// fetch returns the raw JSON of one part of a target's exposition, over
// HTTP when the target has a URL, through obs_pull otherwise; both
// transports carry the same bytes, so each caller keeps one parse.
func (a *Aggregator) fetch(t Target, p part, traceID string) ([]byte, error) {
	if t.URL != "" {
		paths := [...]string{"/metrics?format=export", "/trace?trace=" + traceID, "/events"}
		return a.httpGet(t.URL + paths[p])
	}
	rc := t.Channel
	if rc == nil {
		rc = ratls.Insecure()
	}
	c, err := wire.DialPolicy(t.Addr, a.opts.Timeout, rc, wire.DefaultRetryPolicy(time.Now().UnixNano()))
	if err != nil {
		return nil, err
	}
	defer c.Close()
	resp, err := c.ObsPull(traceID)
	if err != nil {
		return nil, err
	}
	return [...]json.RawMessage{resp.Metrics, resp.Trace, resp.Events}[p], nil
}

func (a *Aggregator) httpGet(url string) ([]byte, error) {
	resp, err := a.httpc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 64<<20))
}

// Merged merges the last-scraped snapshots under the merge rules and
// appends the aggregator's self-metric families. The fleet view is as
// fresh as the last ScrapeOnce — dead nodes contribute their last good
// snapshot, visibly stale via fleet_scrape_age_seconds.
func (a *Aggregator) Merged() []obs.ExportFamily {
	a.mu.Lock()
	snaps := make(map[string][]obs.ExportFamily, len(a.nodes))
	for name, st := range a.nodes {
		if st.fams != nil {
			snaps[name] = st.fams
		}
	}
	a.mu.Unlock()
	res := MergeSnapshots(snaps, a.opts.Merge)
	return append(res.Families, a.selfFamilies(res.Conflicts)...)
}

// selfFamilies synthesizes the aggregator's own exposition: scrape
// errors, per-node staleness and liveness, and merge conflicts.
func (a *Aggregator) selfFamilies(conflicts map[string]int64) []obs.ExportFamily {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.opts.Now()

	names := make([]string, 0, len(a.opts.Targets))
	for _, t := range a.opts.Targets {
		names = append(names, t.Name)
	}
	sort.Strings(names)

	errsFam := obs.ExportFamily{
		Name: "fleet_scrape_errors_total", Kind: "counter",
		Help:       "Failed scrapes per node since the aggregator started.",
		LabelNames: []string{"node"},
	}
	ageFam := obs.ExportFamily{
		Name: "fleet_scrape_age_seconds", Kind: "gauge",
		Help:       "Seconds since each node's last successful scrape (its staleness).",
		LabelNames: []string{"node"},
	}
	upFam := obs.ExportFamily{
		Name: "fleet_node_up", Kind: "gauge",
		Help:       "Whether the last scrape of each node succeeded.",
		LabelNames: []string{"node"},
	}
	for _, name := range names {
		st := a.nodes[name]
		errsFam.Children = append(errsFam.Children,
			obs.ExportChild{Labels: []string{name}, Value: float64(st.errs)})
		up := 0.0
		if st.up {
			up = 1
		}
		upFam.Children = append(upFam.Children,
			obs.ExportChild{Labels: []string{name}, Value: up})
		if !st.at.IsZero() {
			ageFam.Children = append(ageFam.Children,
				obs.ExportChild{Labels: []string{name}, Value: now.Sub(st.at).Seconds()})
		}
	}
	out := []obs.ExportFamily{errsFam}
	if len(ageFam.Children) > 0 {
		out = append(out, ageFam)
	}
	out = append(out, upFam)
	if len(conflicts) > 0 {
		conflictFam := obs.ExportFamily{
			Name: "fleet_merge_conflicts_total", Kind: "counter",
			Help:       "Node contributions dropped from the merge for structural mismatch (kind, labels, buckets, or bucket bounds).",
			LabelNames: []string{"family"},
		}
		fams := make([]string, 0, len(conflicts))
		for f := range conflicts {
			fams = append(fams, f)
		}
		sort.Strings(fams)
		for _, f := range fams {
			conflictFam.Children = append(conflictFam.Children,
				obs.ExportChild{Labels: []string{f}, Value: float64(conflicts[f])})
		}
		out = append(out, conflictFam)
	}
	return out
}

// StitchTrace fans /trace?trace=id out to every target live and joins
// the spans into one cross-node tree. Unreachable nodes are skipped
// (their absence surfaces as orphaned subtrees) and counted as scrape
// errors.
func (a *Aggregator) StitchTrace(traceID string) *Trace {
	return Stitch(traceID, fanOut(a, partTrace, traceID, parseDump))
}

// Events fans /events out to every target live and stitches the event
// rings into one fleet black box: every event is a root, ordered by time.
// Unreachable nodes are skipped and counted as scrape errors.
func (a *Aggregator) Events() *Trace {
	return Stitch("", fanOut(a, partEvents, "", parseDump))
}

func parseDump(raw []byte) (obs.TraceDump, error) {
	var dump obs.TraceDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		return obs.TraceDump{}, fmt.Errorf("parsing trace dump: %w", err)
	}
	return dump, nil
}

// fanOut fetches part from every target concurrently and parses each
// answer, keyed by node name; failures are counted as scrape errors and
// leave the node out.
func fanOut[T any](a *Aggregator, p part, traceID string, parse func([]byte) (T, error)) map[string]T {
	out := make(map[string]T)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, t := range a.opts.Targets {
		wg.Add(1)
		go func(t Target) {
			defer wg.Done()
			raw, err := a.fetch(t, p, traceID)
			var v T
			if err == nil {
				v, err = parse(raw)
			}
			if err != nil {
				a.countErr(t.Name, err)
				return
			}
			mu.Lock()
			out[t.Name] = v
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	return out
}

func (a *Aggregator) countErr(node string, err error) {
	a.mu.Lock()
	if st, ok := a.nodes[node]; ok {
		st.errs++
		st.lastErr = err.Error()
	}
	a.mu.Unlock()
	a.logf("fleet: scrape %s: %v", node, err)
}

// NodeStatus is one target's scrape health, served at /nodes.
type NodeStatus struct {
	Name       string  `json:"name"`
	Endpoint   string  `json:"endpoint"`
	Up         bool    `json:"up"`
	AgeSeconds float64 `json:"age_seconds"`
	Errors     int64   `json:"errors"`
	LastError  string  `json:"last_error,omitempty"`
}

// Nodes reports every target's scrape health, sorted by name.
func (a *Aggregator) Nodes() []NodeStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.opts.Now()
	out := make([]NodeStatus, 0, len(a.opts.Targets))
	for _, t := range a.opts.Targets {
		st := a.nodes[t.Name]
		ep := t.URL
		if ep == "" {
			ep = "wire://" + t.Addr
		}
		ns := NodeStatus{Name: t.Name, Endpoint: ep, Up: st.up, Errors: st.errs, LastError: st.lastErr}
		if !st.at.IsZero() {
			ns.AgeSeconds = now.Sub(st.at).Seconds()
		} else {
			ns.AgeSeconds = -1
		}
		out = append(out, ns)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// serveTrace writes tr as JSON, or as the Render timeline with
// ?render=text.
func serveTrace(w http.ResponseWriter, req *http.Request, tr *Trace) {
	if req.URL.Query().Get("render") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, tr.Render())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(tr)
}

// Handler serves the fleet view (serve it with obs.Serve):
//
//	/metrics   obs.MetricsHandler over Merged: merged Prometheus text, or
//	           ?format=export for export JSON (aggregators compose)
//	/trace     stitched cross-node trace for ?trace=<hex id>
//	           (?render=text for the human timeline)
//	/events    the nodes' event rings stitched into one timeline
//	           (?render=text as for /trace)
//	/nodes     per-node scrape health JSON
func (a *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(a.Merged))
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		id := req.URL.Query().Get("trace")
		if id == "" {
			http.Error(w, "missing ?trace=<hex trace id>", http.StatusBadRequest)
			return
		}
		serveTrace(w, req, a.StitchTrace(id))
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, req *http.Request) {
		serveTrace(w, req, a.Events())
	})
	mux.HandleFunc("/nodes", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(a.Nodes())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}
