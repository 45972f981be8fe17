package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("renewals_total", "Renewals.").Add(3)
	tr := NewTracer(16)
	tr.Start("rpc.renew").End(nil)

	srv := httptest.NewServer(Handler(reg, tr, HandlerOptions{}))
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.Contains(body, "renewals_total 3") {
		t.Fatalf("/metrics missing sample:\n%s", body)
	}
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}

	body, ct = get("/metrics?format=export")
	if !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("export content type = %q", ct)
	}
	fams, err := ReadExport(strings.NewReader(body))
	if err != nil {
		t.Fatalf("export decode: %v\n%s", err, body)
	}
	if snap := Flatten(fams); len(snap) != 1 || snap.Get("renewals_total", nil) != 3 {
		t.Fatalf("export samples = %v", snap)
	}

	body, _ = get("/healthz")
	if strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %q", body)
	}

	body, _ = get("/trace")
	var dump TraceDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("trace decode: %v\n%s", err, body)
	}
	if len(dump.Events) != 1 || dump.Events[0].Name != "rpc.renew" {
		t.Fatalf("trace events = %+v", dump.Events)
	}
	if dump.Truncated || dump.Dropped != 0 {
		t.Fatalf("fresh tracer dump marked truncated: %+v", dump)
	}
}

// TestHandlerOptsEndpoints covers the optional surface: the liveness /
// readiness split, the trace filter, the audit mount, and pprof.
func TestHandlerOptsEndpoints(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(16)
	alpha := tr.Start("alpha")
	alphaTrace := alpha.Context().Trace.String()
	alpha.End(nil)
	tr.Start("beta").End(nil)

	var ready atomic.Bool
	srv := httptest.NewServer(Handler(reg, tr, HandlerOptions{
		Ready: ready.Load,
		Audit: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			io.WriteString(w, "audit-dump")
		}),
		PProf: true,
	}))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Liveness is unconditional; readiness flips with the gate.
	if code, body := get("/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || strings.TrimSpace(body) != "not ready" {
		t.Errorf("/readyz before ready = %d %q", code, body)
	}
	ready.Store(true)
	if code, body := get("/readyz"); code != http.StatusOK || strings.TrimSpace(body) != "ready" {
		t.Errorf("/readyz after ready = %d %q", code, body)
	}

	// ?trace= filters the dump to one trace.
	_, body := get("/trace?trace=" + alphaTrace)
	var dump TraceDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("trace decode: %v\n%s", err, body)
	}
	if len(dump.Events) != 1 || dump.Events[0].Name != "alpha" {
		t.Errorf("filtered trace = %+v, want only alpha", dump.Events)
	}
	var empty TraceDump
	_, body = get("/trace?trace=" + strings.Repeat("f", 32))
	if err := json.Unmarshal([]byte(body), &empty); err != nil {
		t.Fatalf("trace decode: %v\n%s", err, body)
	}
	if len(empty.Events) != 0 {
		t.Errorf("unknown trace filter = %+v, want no events", empty.Events)
	}

	if code, body := get("/audit"); code != http.StatusOK || body != "audit-dump" {
		t.Errorf("/audit = %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}

	// Without the options the extra endpoints 404 and /readyz is always 200.
	bare := httptest.NewServer(Handler(reg, tr, HandlerOptions{}))
	defer bare.Close()
	for path, want := range map[string]int{
		"/readyz":              http.StatusOK,
		"/audit":               http.StatusNotFound,
		"/events":              http.StatusNotFound,
		"/debug/pprof/cmdline": http.StatusNotFound,
	} {
		resp, err := http.Get(bare.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("bare %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestEventsHandlerJSONRoundTrip: /events serves the events ring, not the
// span ring, and its JSON decodes back into the ring's own dump.
func TestEventsHandlerJSONRoundTrip(t *testing.T) {
	spans := NewTracer(16)
	spans.Start("rpc.renew").End(nil)
	events := NewTracer(16)
	events.Mark("http.event", "who", "test")

	srv := httptest.NewServer(Handler(NewRegistry(), spans, HandlerOptions{Events: events}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q, want JSON", ct)
	}
	var got TraceDump
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := events.Dump("")
	if got.Truncated != want.Truncated || got.Dropped != want.Dropped || len(got.Events) != 1 {
		t.Fatalf("round-tripped dump = %+v, want %+v", got, want)
	}
	ev, orig := got.Events[0], want.Events[0]
	if ev.Name != "http.event" || ev.Attrs["who"] != "test" || len(ev.Attrs) != 1 {
		t.Fatalf("round-tripped event = %+v, want the one mark", ev)
	}
	if ev.Span != orig.Span || !ev.Start.Equal(orig.Start) || ev.Duration != 0 || ev.Trace != "" {
		t.Fatalf("round-tripped event = %+v, want %+v", ev, orig)
	}
}

func TestServe(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("up", "Up.").Set(1)
	srv, err := Serve("127.0.0.1:0", Handler(reg, nil, HandlerOptions{}))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "up 1") {
		t.Fatalf("metrics = %s", body)
	}
	// /trace with a nil tracer serves an empty dump, not a panic.
	resp2, err := http.Get("http://" + srv.Addr() + "/trace")
	if err != nil {
		t.Fatalf("GET /trace: %v", err)
	}
	defer resp2.Body.Close()
	var dump TraceDump
	if err := json.NewDecoder(resp2.Body).Decode(&dump); err != nil {
		t.Fatalf("/trace with nil tracer: decode: %v", err)
	}
	if len(dump.Events) != 0 || dump.Truncated {
		t.Fatalf("/trace with nil tracer = %+v", dump)
	}
}
