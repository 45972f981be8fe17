package wire

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/obs"
	"repro/internal/ratls"
	"repro/internal/sgx"
	"repro/internal/sllocal"
)

// eventByName returns the newest event with the given name, oldest events
// losing to newer ones (retries re-run the same RPC).
func eventByName(events []obs.Event, name string) (obs.Event, bool) {
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].Name == name {
			return events[i], true
		}
	}
	return obs.Event{}, false
}

// TestDistributedTraceAcrossTCP is the tentpole acceptance test: a renewal
// driven through SL-Local and wire.Client over a real TCP connection must
// leave spans in BOTH processes' tracers sharing one TraceID, with the
// parent chain sllocal.renew → rpc.renew (client) → rpc.renew (server) →
// slremote.renew intact, and the trace retrievable from both /trace
// endpoints by ID.
func TestDistributedTraceAcrossTCP(t *testing.T) {
	serverReg, serverTr := obs.NewRegistry(), obs.NewTracer(64)
	d := startInstrumentedDeployment(t, serverReg, serverTr, nil)

	m, err := sgx.NewMachine(sgx.MachineConfig{Name: "trace-client", EPCBytes: 8 << 20})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	plat, err := attest.NewPlatform("trace-client", m)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	d.service.RegisterPlatform(plat)
	d.service.TrustMeasurement(sgx.MeasurementOf(sllocal.EnclaveCodeIdentity))

	client, err := Dial(d.addr, ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	clientReg, clientTr := obs.NewRegistry(), obs.NewTracer(64)
	client.ExposeMetrics(clientReg, clientTr)

	if err := d.remote.RegisterLicense("lic", lease.CountBased, 10_000); err != nil {
		t.Fatalf("RegisterLicense: %v", err)
	}

	svc, err := sllocal.New(sllocal.Config{TokenBatch: 10}, sllocal.Deps{
		Machine: m, Platform: plat, Remote: client, State: &sllocal.UntrustedState{},
	})
	if err != nil {
		t.Fatalf("sllocal.New: %v", err)
	}
	svc.ExposeMetrics(clientReg, clientTr)
	if err := svc.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	app, err := m.CreateEnclave("app", []byte("app"), 0)
	if err != nil {
		t.Fatalf("CreateEnclave: %v", err)
	}
	// The first token request forces exactly one renewal over the wire.
	if _, err := svc.RequestToken(app, "lic"); err != nil {
		t.Fatalf("RequestToken: %v", err)
	}

	// The server ends a handler span just after writing the reply, so the
	// client can hold the token before the init and renew spans land.
	// Wait for both.
	waitFor(t, "the server's rpc.init and rpc.renew spans", func() bool {
		_, init := eventByName(serverTr.Events(), "rpc.init")
		_, renew := eventByName(serverTr.Events(), "rpc.renew")
		return init && renew
	})
	cEvents, sEvents := clientTr.Events(), serverTr.Events()

	// Client side: sllocal.renew is the root, rpc.renew its child.
	local, ok := eventByName(cEvents, "sllocal.renew")
	if !ok {
		t.Fatalf("no sllocal.renew span in client tracer: %+v", cEvents)
	}
	if local.Parent != 0 {
		t.Errorf("sllocal.renew parent = %d, want root", local.Parent)
	}
	rpc, ok := eventByName(cEvents, "rpc.renew")
	if !ok {
		t.Fatalf("no rpc.renew span in client tracer: %+v", cEvents)
	}
	if rpc.Parent != local.Span {
		t.Errorf("client rpc.renew parent = %d, want sllocal.renew span %d", rpc.Parent, local.Span)
	}
	if rpc.Trace == "" || rpc.Trace != local.Trace {
		t.Fatalf("client trace IDs: rpc %q, sllocal %q", rpc.Trace, local.Trace)
	}
	trace := rpc.Trace

	// Server side: the handler span joined the client's trace with the
	// client RPC span as parent, and slremote.renew hangs off the handler.
	handler, ok := eventByName(sEvents, "rpc.renew")
	if !ok {
		t.Fatalf("no rpc.renew span in server tracer: %+v", sEvents)
	}
	if handler.Trace != trace {
		t.Errorf("server handler trace = %q, want %q", handler.Trace, trace)
	}
	if handler.Parent != rpc.Span {
		t.Errorf("server handler parent = %d, want client rpc span %d", handler.Parent, rpc.Span)
	}
	remote, ok := eventByName(sEvents, "slremote.renew")
	if !ok {
		t.Fatalf("no slremote.renew span in server tracer: %+v", sEvents)
	}
	if remote.Trace != trace || remote.Parent != handler.Span {
		t.Errorf("slremote.renew trace/parent = %q/%d, want %q/%d",
			remote.Trace, remote.Parent, trace, handler.Span)
	}
	if remote.Attrs["license"] != "lic" {
		t.Errorf("slremote.renew attrs = %v, want license=lic", remote.Attrs)
	}

	// The same trace ID pulls linked spans out of both /trace endpoints.
	for _, side := range []struct {
		name string
		h    http.Handler
	}{
		{"client", obs.Handler(clientReg, clientTr, obs.HandlerOptions{})},
		{"server", obs.Handler(serverReg, serverTr, obs.HandlerOptions{})},
	} {
		srv := httptest.NewServer(side.h)
		resp, err := http.Get(srv.URL + "/trace?trace=" + trace)
		if err != nil {
			t.Fatalf("%s /trace: %v", side.name, err)
		}
		var dump obs.TraceDump
		err = json.NewDecoder(resp.Body).Decode(&dump)
		resp.Body.Close()
		srv.Close()
		if err != nil {
			t.Fatalf("%s /trace decode: %v", side.name, err)
		}
		events := dump.Events
		if len(events) == 0 {
			t.Errorf("%s /trace?trace=%s returned no events", side.name, trace)
		}
		for _, ev := range events {
			if ev.Trace != trace {
				t.Errorf("%s /trace filter leaked trace %q", side.name, ev.Trace)
			}
		}
	}

	// Init propagated the same way (fresh trace, same linkage shape).
	initLocal, ok1 := eventByName(cEvents, "sllocal.init")
	initHandler, ok2 := eventByName(sEvents, "rpc.init")
	if !ok1 || !ok2 {
		t.Fatalf("init spans missing: client %v server %v", ok1, ok2)
	}
	if initLocal.Trace != initHandler.Trace {
		t.Errorf("init trace IDs diverged: %q vs %q", initLocal.Trace, initHandler.Trace)
	}
	if initLocal.Trace == trace {
		t.Error("init and renew share a trace ID; they are separate requests")
	}
}

// TestPanicEndsHandlerSpan pins the satellite fix: a handler panic must
// still end the handler's trace span, recording the panic as the span
// error instead of leaving it dangling (and never recording it twice).
func TestPanicEndsHandlerSpan(t *testing.T) {
	reg, tr := obs.NewRegistry(), obs.NewTracer(64)
	d := startInstrumentedDeployment(t, reg, tr, func(env Envelope) {
		if env.Type == TypeRenew {
			panic("injected handler panic")
		}
	})

	client, err := Dial(d.addr, ratls.Insecure())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	if _, err := client.RenewLease("sl-x", "lic"); !errors.Is(err, ErrRemote) {
		t.Fatalf("panicking handler reply = %v, want remote error", err)
	}

	events := tr.Events()
	ev, ok := eventByName(events, "rpc."+TypeRenew)
	if !ok {
		t.Fatalf("panicking handler left no span: %+v", events)
	}
	if ev.Err == "" {
		t.Fatalf("handler span ended without the panic error: %+v", ev)
	}
	count := 0
	for _, e := range events {
		if e.Name == "rpc."+TypeRenew {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("handler span recorded %d times, want exactly once", count)
	}
	// The RPC latency histogram moved exactly once too.
	if got := reg.Snapshot().Get("wire_server_rpc_latency_seconds_count",
		map[string]string{"type": TypeRenew}); got != 1 {
		t.Fatalf("latency count = %v, want 1", got)
	}
}
