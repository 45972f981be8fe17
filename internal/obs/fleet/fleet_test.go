package fleet

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/obs"
	"repro/internal/ratls"
	"repro/internal/slremote"
	"repro/internal/wire"
)

// startObsNode is one synthetic fleet member: a bundle behind a real obs
// HTTP endpoint.
func startObsNode(t *testing.T) *NodeObs {
	t.Helper()
	n := NewNodeObs(t.Name())
	if err := n.Serve("127.0.0.1:0", obs.HandlerOptions{}); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(n.Close)
	return n
}

// startWireObsNode serves the same bundle through a wire server's
// obs_pull RPC instead of HTTP — the attested-channel scrape path.
func startWireObsNode(t *testing.T, n *NodeObs) string {
	t.Helper()
	remote, err := slremote.NewServer(slremote.DefaultConfig(), attest.NewService())
	if err != nil {
		t.Fatalf("slremote.NewServer: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv, err := wire.NewServer(remote, t.Logf, ratls.Insecure(), nil, nil, n.PullSource())
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
	a.Registry.Counter("fleet_demo_total", "demo").Add(2)
	b := startObsNode(t)
	b.Registry.Counter("fleet_demo_total", "demo").Add(3)
	wireAddr := startWireObsNode(t, b)

	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	agg := New(Options{
		Targets: []Target{
			{Name: "node-a", URL: a.URL()},
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
	a.Registry.Counter("stale_demo_total", "demo").Add(7)

	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	now := t0
	agg := New(Options{
		Targets: []Target{{Name: "node-a", URL: a.URL()}},
		Timeout: 2 * time.Second,
		Now:     func() time.Time { return now },
	})
	if err := agg.ScrapeOnce(); err != nil {
		t.Fatalf("ScrapeOnce: %v", err)
	}

	// The node dies; the next scrape fails but the last good snapshot
	// stays, visibly stale.
	a.Close()
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
	root := client.Tracer.Start("client.request")
	rpc := root.Child("rpc.renew")
	handler := server.Tracer.StartLinked("rpc.renew", rpc.Context())
	handler.End(nil)
	rpc.End(nil)
	root.End(nil)
	traceID := root.Context().Trace.String()

	client.Flight.Mark("test.request_sent", "k", "v")
	server.Flight.Mark("test.request_handled")

	agg := New(Options{
		Targets: []Target{
			{Name: "client", URL: client.URL()},
			{Name: "server", URL: server.URL()},
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
	if events.Spans != 2 || len(events.Roots) != 2 || len(events.Orphans) != 0 {
		t.Fatalf("stitched events = %d spans, %d roots, %d orphans, want 2/2/0", events.Spans, len(events.Roots), len(events.Orphans))
	}
	if events.Roots[0].Node != "client" || events.Roots[1].Node != "server" {
		t.Fatalf("event timeline = %s then %s, want client then server", events.Roots[0].Node, events.Roots[1].Node)
	}
	if out := events.Render(); !strings.Contains(out, "[client] test.request_sent (0s) k=v") {
		t.Errorf("Render lacks the event with its attribute:\n%s", out)
	}
}

// TestStitchOrdersEventsAcrossNodes: Stitch("", …) over event-ring dumps
// is the fleet timeline — every event stamped with its node, ordered by
// time, ties by node name and then by ring order.
func TestStitchOrdersEventsAcrossNodes(t *testing.T) {
	a, b := obs.NewTracer(64), obs.NewTracer(64)
	a.Mark("m.a1")
	b.Mark("m.b1")
	a.Mark("m.a2")

	merged := Stitch("", map[string]obs.TraceDump{"alpha": a.Dump(""), "beta": b.Dump("")})
	if merged.Spans != 3 || len(merged.Roots) != 3 || len(merged.Orphans) != 0 {
		t.Fatalf("merged %d events, %d roots, %d orphans, want 3/3/0", merged.Spans, len(merged.Roots), len(merged.Orphans))
	}
	nodes := map[string]bool{}
	for i, ev := range merged.Roots {
		if i > 0 && ev.Start.Before(merged.Roots[i-1].Start) {
			t.Fatalf("merged timeline out of order at %d: %s before %s", i, merged.Roots[i-1].Name, ev.Name)
		}
		if ev.Node == "" {
			t.Fatalf("merged event missing node stamp: %+v", ev)
		}
		nodes[ev.Node] = true
	}
	if !nodes["alpha"] || !nodes["beta"] {
		t.Fatalf("node stamps: %v", nodes)
	}

	// Equal times: node name first, then each ring's own order.
	at := time.Unix(1700000000, 0)
	mark := func(name string, span uint64) obs.Event { return obs.Event{Name: name, Span: span, Start: at} }
	tied := Stitch("", map[string]obs.TraceDump{
		"beta":  {Events: []obs.Event{mark("t.b1", 1), mark("t.b2", 2)}},
		"alpha": {Events: []obs.Event{mark("t.a1", 1), mark("t.a2", 2)}},
	})
	var order []string
	for _, ev := range tied.Roots {
		order = append(order, ev.Node+"/"+ev.Name)
	}
	if got, want := strings.Join(order, " "), "alpha/t.a1 alpha/t.a2 beta/t.b1 beta/t.b2"; got != want {
		t.Fatalf("tied order = %s, want %s", got, want)
	}
}

// TestEventsSurviveSpanFlood is why a node keeps two rings: a span flood
// many times the ring's size evicts spans, counted, and never an event.
func TestEventsSurviveSpanFlood(t *testing.T) {
	n := startObsNode(t)
	n.Flight.Mark("test.before_flood", "k", "v")
	for i := 0; i < 10*ringSize; i++ {
		n.Tracer.Start("test.flood").End(nil)
	}

	resp, err := http.Get(n.URL() + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	dump, err := parseDump(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) != 1 || dump.Events[0].Name != "test.before_flood" || dump.Truncated {
		t.Fatalf("/events after the flood: %d events, dropped %d, want the one mark and none dropped",
			len(dump.Events), dump.Dropped)
	}
	snap := n.Registry.Snapshot()
	if got := snap.Get("obs_trace_dropped_spans_total", nil); got != 9*ringSize {
		t.Errorf("obs_trace_dropped_spans_total = %v, want %d", got, 9*ringSize)
	}
	if got := snap.Get("flight_dropped_events_total", nil); got != 0 {
		t.Errorf("flight_dropped_events_total = %v, want 0", got)
	}
}

// TestEventsOneExposition: a node's /events body and its obs_pull Events
// are the same bytes, so the aggregator reads one exposition over either
// transport.
func TestEventsOneExposition(t *testing.T) {
	n := startObsNode(t)
	n.Flight.Mark("test.exposed", "err", "a <b> & c")
	wireAddr := startWireObsNode(t, n)
	agg := New(Options{Timeout: 2 * time.Second})

	overHTTP, err := agg.fetch(Target{Name: "http", URL: n.URL()}, partEvents, "")
	if err != nil {
		t.Fatalf("HTTP fetch: %v", err)
	}
	overWire, err := agg.fetch(Target{Name: "wire", Addr: wireAddr}, partEvents, "")
	if err != nil {
		t.Fatalf("obs_pull fetch: %v", err)
	}
	if pulled := n.PullSource()("").Events; !bytes.Equal(overHTTP, pulled) || !bytes.Equal(overWire, pulled) {
		t.Fatalf("expositions differ:\nhttp: %s\nwire: %s\npull: %s", overHTTP, overWire, pulled)
	}
}

// TestPersistEventsRoundTrip: the graceful-shutdown black box reads back
// as the ring's dump, and a second persist replaces the first.
func TestPersistEventsRoundTrip(t *testing.T) {
	n := NewNodeObs(t.Name())
	n.Flight.Mark("persist.one", "n", "1")
	n.Flight.Mark("persist.two")
	path := filepath.Join(t.TempDir(), "flight.log")
	if err := n.PersistEvents(path); err != nil {
		t.Fatalf("PersistEvents: %v", err)
	}
	d, err := ReadEvents(path)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(d.Events) != 2 || d.Events[0].Name != "persist.one" || d.Events[1].Name != "persist.two" {
		t.Fatalf("read back: %+v", d.Events)
	}
	if got := d.Events[0].Attrs["n"]; got != "1" {
		t.Errorf("attr lost across persist: %q", got)
	}

	n.Flight.Mark("persist.three")
	if err := n.PersistEvents(path); err != nil {
		t.Fatalf("second PersistEvents: %v", err)
	}
	if d, err = ReadEvents(path); err != nil {
		t.Fatalf("ReadEvents after second persist: %v", err)
	}
	if len(d.Events) != 3 || d.Events[0].Name != "persist.one" || d.Events[2].Name != "persist.three" {
		t.Fatalf("second dump did not replace the first: %+v", d.Events)
	}

	if _, err := ReadEvents(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("ReadEvents of a path nothing was persisted to succeeded")
	}
}

func TestAggregatorHTTPEndpoint(t *testing.T) {
	a := startObsNode(t)
	a.Registry.Counter("endpoint_demo_total", "demo").Add(1)
	agg := New(Options{
		Targets: []Target{{Name: "node-a", URL: a.URL()}},
		Timeout: 2 * time.Second,
	})
	if err := agg.ScrapeOnce(); err != nil {
		t.Fatalf("ScrapeOnce: %v", err)
	}
	srv, err := obs.Serve("127.0.0.1:0", agg.Handler())
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
	if code, body := get("/events"); code != 200 || !strings.Contains(body, `"roots"`) {
		t.Errorf("/events: %d\n%s", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz: %d", code)
	}
}
