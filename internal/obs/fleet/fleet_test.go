package fleet

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/ratls"
	"repro/internal/slremote"
	"repro/internal/wire"
)

// obsNode is one synthetic fleet member: a registry, tracer, and flight
// recorder behind a real obs HTTP endpoint.
type obsNode struct {
	reg *obs.Registry
	tr  *obs.Tracer
	rec *flight.Recorder
	ep  *obs.HTTPServer
}

func startObsNode(t *testing.T) *obsNode {
	t.Helper()
	n := &obsNode{reg: obs.NewRegistry(), tr: obs.NewTracer(64), rec: flight.NewRecorder(64)}
	ep, err := obs.StartHTTPOpts("127.0.0.1:0", n.reg, n.tr,
		obs.HandlerOptions{Events: n.rec.HTTPHandler()})
	if err != nil {
		t.Fatalf("StartHTTPOpts: %v", err)
	}
	t.Cleanup(func() { ep.Close() })
	n.ep = ep
	return n
}

func (n *obsNode) url() string { return "http://" + n.ep.Addr() }

// startWireObsNode serves the same bundle through a wire server's
// obs_pull RPC instead of HTTP — the attested-channel scrape path.
func startWireObsNode(t *testing.T, n *obsNode) string {
	t.Helper()
	remote, err := slremote.NewServer(slremote.DefaultConfig(), attest.NewService())
	if err != nil {
		t.Fatalf("slremote.NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv, err := wire.NewServer(remote, t.Logf, ratls.Insecure(), nil, nil, func(traceFilter string) wire.ObsPullResponse {
		var resp wire.ObsPullResponse
		resp.Metrics, _ = json.Marshal(n.reg.Export())
		resp.Trace, _ = json.Marshal(n.tr.Dump(traceFilter))
		resp.Events, _ = json.Marshal(n.rec.Dump())
		return resp
	})
	if err != nil {
		t.Fatalf("wire.NewServer: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String()
}

func deadTargetURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	url := "http://" + ln.Addr().String()
	ln.Close()
	return url
}

func TestAggregatorScrapeMergeAndSelfMetrics(t *testing.T) {
	a := startObsNode(t)
	a.reg.Counter("fleet_demo_total", "demo").Add(2)
	b := startObsNode(t)
	b.reg.Counter("fleet_demo_total", "demo").Add(3)
	wireAddr := startWireObsNode(t, b)

	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	agg := New(Options{
		Targets: []Target{
			{Name: "node-a", URL: a.url()},
			{Name: "node-b", Addr: wireAddr},
			{Name: "node-dead", URL: deadTargetURL(t)},
		},
		Timeout: 2 * time.Second,
		Now:     func() time.Time { return now },
		Logf:    t.Logf,
	})

	// The dead node makes the one-shot verdict an error, but the live
	// nodes' snapshots are folded in regardless.
	if err := agg.ScrapeOnce(); err == nil {
		t.Fatal("ScrapeOnce with a dead target returned nil")
	}

	merged := agg.Merged()
	get := func(name string, labels ...string) (obs.ExportChild, bool) {
		for _, f := range merged {
			if f.Name != name {
				continue
			}
			for _, c := range f.Children {
				if len(labels) == 0 || (len(c.Labels) > 0 && c.Labels[0] == labels[0]) {
					return c, true
				}
			}
		}
		return obs.ExportChild{}, false
	}

	if c, ok := get("fleet_demo_total"); !ok || c.Value != 5 {
		t.Errorf("merged counter = %+v (ok=%v), want 5 across HTTP and wire scrapes", c, ok)
	}
	for name, want := range map[string]float64{"node-a": 1, "node-b": 1, "node-dead": 0} {
		if c, ok := get("fleet_node_up", name); !ok || c.Value != want {
			t.Errorf("fleet_node_up{%s} = %+v (ok=%v), want %v", name, c, ok, want)
		}
	}
	if c, ok := get("fleet_scrape_errors_total", "node-dead"); !ok || c.Value != 1 {
		t.Errorf("fleet_scrape_errors_total{node-dead} = %+v (ok=%v), want 1", c, ok)
	}
	if c, ok := get("fleet_scrape_age_seconds", "node-a"); !ok || c.Value != 0 {
		t.Errorf("fleet_scrape_age_seconds{node-a} = %+v (ok=%v), want 0 under the fixed clock", c, ok)
	}
	if _, ok := get("fleet_scrape_age_seconds", "node-dead"); ok {
		t.Error("never-scraped node has an age series; staleness must be unmeasurable, not 0")
	}

	// Node health: the dead node reports age -1 (never scraped) and its
	// last error.
	var dead NodeStatus
	for _, ns := range agg.Nodes() {
		if ns.Name == "node-dead" {
			dead = ns
		}
	}
	if dead.Up || dead.AgeSeconds != -1 || dead.Errors != 1 || dead.LastError == "" {
		t.Errorf("dead node status = %+v", dead)
	}
}

func TestAggregatorStaleSnapshotSurvivesNodeDeath(t *testing.T) {
	a := startObsNode(t)
	a.reg.Counter("stale_demo_total", "demo").Add(7)

	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	now := t0
	agg := New(Options{
		Targets: []Target{{Name: "node-a", URL: a.url()}},
		Timeout: 2 * time.Second,
		Now:     func() time.Time { return now },
	})
	if err := agg.ScrapeOnce(); err != nil {
		t.Fatalf("ScrapeOnce: %v", err)
	}

	// The node dies; the next scrape fails but the last good snapshot
	// stays, visibly stale.
	a.ep.Close()
	now = t0.Add(30 * time.Second)
	if err := agg.ScrapeOnce(); err == nil {
		t.Fatal("scrape of a closed endpoint succeeded")
	}
	merged := agg.Merged()
	var gotCounter, gotAge, gotUp float64
	for _, f := range merged {
		for _, c := range f.Children {
			switch f.Name {
			case "stale_demo_total":
				gotCounter = c.Value
			case "fleet_scrape_age_seconds":
				gotAge = c.Value
			case "fleet_node_up":
				gotUp = c.Value
			}
		}
	}
	if gotCounter != 7 {
		t.Errorf("stale snapshot lost: counter = %v, want 7", gotCounter)
	}
	if gotAge != 30 {
		t.Errorf("staleness = %v, want 30s", gotAge)
	}
	if gotUp != 0 {
		t.Errorf("fleet_node_up = %v for dead node, want 0", gotUp)
	}
}

func TestAggregatorStitchTraceAndEvents(t *testing.T) {
	client := startObsNode(t)
	server := startObsNode(t)

	// One cross-node trace: the client's RPC span context is carried to
	// the server, whose handler span links into the same trace — exactly
	// what the wire layer does on a real request.
	root := client.tr.Start("client.request")
	rpc := root.Child("rpc.renew")
	handler := server.tr.StartLinked("rpc.renew", rpc.Context())
	handler.End(nil)
	rpc.End(nil)
	root.End(nil)
	traceID := root.Context().Trace.String()

	client.rec.Emit("test.request_sent")
	server.rec.Emit("test.request_handled")

	agg := New(Options{
		Targets: []Target{
			{Name: "client", URL: client.url()},
			{Name: "server", URL: server.url()},
		},
		Timeout: 2 * time.Second,
	})

	tr := agg.StitchTrace(traceID)
	if tr.Spans != 3 || len(tr.Nodes) != 2 {
		t.Fatalf("stitched trace: %d spans on %v, want 3 spans on 2 nodes", tr.Spans, tr.Nodes)
	}
	if len(tr.Roots) != 1 || len(tr.Orphans) != 0 {
		t.Fatalf("roots=%d orphans=%d, want 1/0", len(tr.Roots), len(tr.Orphans))
	}
	hop := tr.Roots[0].Children[0]
	if len(hop.Children) != 1 || hop.Children[0].Node != "server" {
		t.Fatalf("handler span not attached under the client RPC: %+v", hop.Children)
	}

	events := agg.Events()
	if len(events) != 2 {
		t.Fatalf("merged events = %d, want 2", len(events))
	}
	if events[0].Node == "" || events[1].Node == "" {
		t.Fatalf("merged events missing node stamps: %+v", events)
	}
}

func TestAggregatorHTTPEndpoint(t *testing.T) {
	a := startObsNode(t)
	a.reg.Counter("endpoint_demo_total", "demo").Add(1)
	agg := New(Options{
		Targets: []Target{{Name: "node-a", URL: a.url()}},
		Timeout: 2 * time.Second,
	})
	if err := agg.ScrapeOnce(); err != nil {
		t.Fatalf("ScrapeOnce: %v", err)
	}
	srv, err := agg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "endpoint_demo_total 1") {
		t.Errorf("/metrics: %d\n%s", code, body)
	}
	if code, body := get("/metrics?format=export"); code != 200 || !strings.Contains(body, `"endpoint_demo_total"`) {
		t.Errorf("/metrics?format=export: %d\n%s", code, body)
	}
	if code, body := get("/nodes"); code != 200 || !strings.Contains(body, `"node-a"`) {
		t.Errorf("/nodes: %d\n%s", code, body)
	}
	if code, _ := get("/trace"); code != http.StatusBadRequest {
		t.Errorf("/trace without id: %d, want 400", code)
	}
	if code, body := get("/events"); code != 200 || !strings.HasPrefix(strings.TrimSpace(body), "[") {
		t.Errorf("/events: %d\n%s", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz: %d", code)
	}
}
