package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
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
// that stitches a TraceID across every node, one /events flight
// timeline, plus fleet self-metrics (scrape errors, staleness, node
// liveness) so the aggregator's own blind spots are visible.
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
			fams, err := a.scrapeMetrics(t)
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

// scrapeMetrics fetches one target's full-fidelity export snapshot.
func (a *Aggregator) scrapeMetrics(t Target) ([]obs.ExportFamily, error) {
	if t.URL != "" {
		body, err := a.httpGet(t.URL + "/metrics?format=export")
		if err != nil {
			return nil, err
		}
		return obs.ReadExport(bytes.NewReader(body))
	}
	resp, err := a.obsPull(t, "")
	if err != nil {
		return nil, err
	}
	return obs.ReadExport(bytes.NewReader(resp.Metrics))
}

// scrapeTrace fetches one target's (optionally filtered) trace dump.
func (a *Aggregator) scrapeTrace(t Target, traceID string) (obs.TraceDump, error) {
	if t.URL != "" {
		body, err := a.httpGet(t.URL + "/trace?trace=" + traceID)
		if err != nil {
			return obs.TraceDump{}, err
		}
		var dump obs.TraceDump
		if err := json.Unmarshal(body, &dump); err != nil {
			return obs.TraceDump{}, fmt.Errorf("parsing trace dump: %w", err)
		}
		return dump, nil
	}
	resp, err := a.obsPull(t, traceID)
	if err != nil {
		return obs.TraceDump{}, err
	}
	var dump obs.TraceDump
	if err := json.Unmarshal(resp.Trace, &dump); err != nil {
		return obs.TraceDump{}, fmt.Errorf("parsing trace dump: %w", err)
	}
	return dump, nil
}

// scrapeEvents fetches one target's flight-recorder dump.
func (a *Aggregator) scrapeEvents(t Target) (flight.Dump, error) {
	if t.URL != "" {
		body, err := a.httpGet(t.URL + "/events")
		if err != nil {
			return flight.Dump{}, err
		}
		return flight.ParseDump(bytes.NewReader(body))
	}
	resp, err := a.obsPull(t, "")
	if err != nil {
		return flight.Dump{}, err
	}
	return flight.ParseDump(bytes.NewReader(resp.Events))
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

func (a *Aggregator) obsPull(t Target, traceFilter string) (wire.ObsPullResponse, error) {
	rc := t.Channel
	if rc == nil {
		rc = ratls.Insecure()
	}
	c, err := wire.DialPolicy(t.Addr, a.opts.Timeout, rc, wire.DefaultRetryPolicy(time.Now().UnixNano()))
	if err != nil {
		return wire.ObsPullResponse{}, err
	}
	defer c.Close()
	return c.ObsPull(traceFilter)
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
			Help:       "Node snapshots dropped from the merge for structural mismatch (kind, labels, or bucket bounds).",
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

// WritePrometheus renders the merged fleet view in the Prometheus text
// format (with _p50/_p95/_p99 recomputed from merged buckets).
func (a *Aggregator) WritePrometheus(w io.Writer) error {
	return obs.WriteFamiliesPrometheus(w, a.Merged())
}

// WriteExport renders the merged fleet view as export JSON — the same
// shape the nodes expose, so aggregators compose.
func (a *Aggregator) WriteExport(w io.Writer) error {
	return obs.WriteExport(w, a.Merged())
}

// StitchTrace fans /trace?trace=id out to every target live and joins
// the spans into one cross-node tree. Unreachable nodes are skipped
// (their absence surfaces as orphaned subtrees) and counted as scrape
// errors.
func (a *Aggregator) StitchTrace(traceID string) *Trace {
	dumps := make(map[string]obs.TraceDump)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, t := range a.opts.Targets {
		wg.Add(1)
		go func(t Target) {
			defer wg.Done()
			dump, err := a.scrapeTrace(t, traceID)
			if err != nil {
				a.countErr(t.Name, err)
				return
			}
			mu.Lock()
			dumps[t.Name] = dump
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	return Stitch(traceID, dumps)
}

// Events fans /events out to every target live and merges the flight
// timelines into one fleet black box, ordered by time. Unreachable
// nodes are skipped and counted as scrape errors.
func (a *Aggregator) Events() []flight.Event {
	dumps := make(map[string]flight.Dump)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, t := range a.opts.Targets {
		wg.Add(1)
		go func(t Target) {
			defer wg.Done()
			dump, err := a.scrapeEvents(t)
			if err != nil {
				a.countErr(t.Name, err)
				return
			}
			mu.Lock()
			dumps[t.Name] = dump
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	return flight.Merge(dumps)
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

// Handler serves the fleet view:
//
//	/metrics   merged Prometheus text (?format=export for export JSON)
//	/trace     stitched cross-node trace for ?trace=<hex id>
//	           (?render=text for the human timeline)
//	/events    merged flight-recorder timeline, newest last
//	/nodes     per-node scrape health JSON
func (a *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "export" {
			w.Header().Set("Content-Type", "application/json")
			_ = a.WriteExport(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = a.WritePrometheus(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		id := req.URL.Query().Get("trace")
		if id == "" {
			http.Error(w, "missing ?trace=<hex trace id>", http.StatusBadRequest)
			return
		}
		tr := a.StitchTrace(id)
		if req.URL.Query().Get("render") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, tr.Render())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tr)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, req *http.Request) {
		events := a.Events()
		if events == nil {
			events = []flight.Event{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(events)
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

// Server is a running fleet endpoint (see Aggregator.Serve).
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP server for Handler on addr (use ":0" for an
// ephemeral port); the returned server reports its bound address.
func (a *Aggregator) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: a.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }
