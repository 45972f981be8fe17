package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestEmitAndDumpOrder(t *testing.T) {
	r := NewRecorder(64)
	r.Emit("a.first", KV{K: "k", V: "1"})
	r.Emit("a.second")
	r.Emit("a.third", KV{K: "x", V: "y"}, KV{K: "z", V: "w"})

	d := r.Dump()
	if d.Truncated || d.Dropped != 0 {
		t.Fatalf("fresh ring reports truncation: %+v", d)
	}
	if len(d.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(d.Events))
	}
	for i, want := range []string{"a.first", "a.second", "a.third"} {
		if d.Events[i].Kind != want {
			t.Errorf("event %d kind = %q, want %q", i, d.Events[i].Kind, want)
		}
		if got := d.Events[i].Seq; got != uint64(i+1) {
			t.Errorf("event %d seq = %d, want %d", i, got, i+1)
		}
	}
	if got := d.Events[0].Attr("k"); got != "1" {
		t.Errorf("Attr(k) = %q, want 1", got)
	}
	if got := d.Events[0].Attr("missing"); got != "" {
		t.Errorf("Attr(missing) = %q, want empty", got)
	}
	if got := d.Events[2].Attrs(); len(got) != 2 || got[0].K != "x" || got[1].K != "z" {
		t.Errorf("Attrs = %+v", got)
	}
}

func TestRingWrapDropsOldest(t *testing.T) {
	r := NewRecorder(0) // clamps to the 64 minimum
	for i := 0; i < 100; i++ {
		r.Emit("wrap.tick", KV{K: "i", V: fmt.Sprint(i)})
	}
	if got := r.Len(); got != 64 {
		t.Fatalf("Len = %d, want 64", got)
	}
	d := r.Dump()
	if !d.Truncated || d.Dropped != 36 {
		t.Fatalf("dump truncation: %+v, want 36 dropped", d)
	}
	if got := d.Events[0].Attr("i"); got != "36" {
		t.Errorf("oldest surviving event i = %q, want 36 (oldest evicted first)", got)
	}
	if got := d.Events[len(d.Events)-1].Attr("i"); got != "99" {
		t.Errorf("newest event i = %q, want 99", got)
	}
}

func TestAttrOverflowDropped(t *testing.T) {
	r := NewRecorder(64)
	kvs := make([]KV, maxAttrs+3)
	for i := range kvs {
		kvs[i] = KV{K: fmt.Sprintf("k%d", i), V: "v"}
	}
	r.Emit("attr.storm", kvs...)
	ev := r.Events()[0]
	if got := len(ev.Attrs()); got != maxAttrs {
		t.Fatalf("kept %d attrs, want %d", got, maxAttrs)
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Emit("nil.event")
	if r.Events() != nil || r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder not inert")
	}
	d := r.Dump()
	if d.Truncated || len(d.Events) != 0 {
		t.Fatalf("nil dump: %+v", d)
	}
	r.ExposeMetrics(obs.NewRegistry())
	if err := r.Persist(filepath.Join(t.TempDir(), "f.log")); err != nil {
		t.Fatalf("nil Persist: %v", err)
	}
}

func TestConcurrentEmit(t *testing.T) {
	r := NewRecorder(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit("conc.event")
			}
		}()
	}
	wg.Wait()
	if got := r.Len() + int(r.Dropped()); got != 800 {
		t.Fatalf("kept+dropped = %d, want 800", got)
	}
}

func TestExposeMetrics(t *testing.T) {
	r := NewRecorder(0)
	reg := obs.NewRegistry()
	r.ExposeMetrics(reg)
	for i := 0; i < 70; i++ {
		r.Emit("metric.tick")
	}
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, "flight_events_total 70") {
		t.Errorf("missing emitted counter:\n%s", out)
	}
	if !strings.Contains(out, "flight_dropped_events_total 6") {
		t.Errorf("missing dropped counter:\n%s", out)
	}
}

func TestJSONRoundTripAndHTTPHandler(t *testing.T) {
	r := NewRecorder(64)
	r.Emit("http.event", KV{K: "who", V: "test"})

	srv := httptest.NewServer(r.HTTPHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	d, err := ParseDump(resp.Body)
	if err != nil {
		t.Fatalf("ParseDump: %v", err)
	}
	if len(d.Events) != 1 || d.Events[0].Kind != "http.event" || d.Events[0].Attr("who") != "test" {
		t.Fatalf("round-tripped dump: %+v", d)
	}
}

func TestEventJSONDropsOverflowAttrs(t *testing.T) {
	raw := []byte(`{"seq":1,"kind":"k","attrs":[{"k":"a","v":"1"},{"k":"b","v":"2"},{"k":"c","v":"3"},{"k":"d","v":"4"},{"k":"e","v":"5"}]}`)
	var ev Event
	if err := json.Unmarshal(raw, &ev); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got := len(ev.Attrs()); got != maxAttrs {
		t.Fatalf("kept %d attrs, want %d", got, maxAttrs)
	}
}

func TestPersistReadDumpRoundTrip(t *testing.T) {
	r := NewRecorder(64)
	r.Emit("persist.one", KV{K: "n", V: "1"})
	r.Emit("persist.two")
	path := filepath.Join(t.TempDir(), "flight.log")
	if err := r.Persist(path); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	events, err := ReadDump(path)
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	if len(events) != 2 || events[0].Kind != "persist.one" || events[1].Kind != "persist.two" {
		t.Fatalf("read back: %+v", events)
	}
	if got := events[0].Attr("n"); got != "1" {
		t.Errorf("attr lost across persist: %q", got)
	}

	// A second Persist to the same path replaces the dump: the ring's
	// first two events come back once, not twice.
	r.Emit("persist.three")
	if err := r.Persist(path); err != nil {
		t.Fatalf("second Persist: %v", err)
	}
	events, err = ReadDump(path)
	if err != nil {
		t.Fatalf("ReadDump after second Persist: %v", err)
	}
	if len(events) != 3 || events[0].Kind != "persist.one" || events[2].Kind != "persist.three" {
		t.Fatalf("second dump did not replace the first: %+v", events)
	}

	if _, err := ReadDump(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("ReadDump of a path nothing was persisted to succeeded")
	}
}

func TestMergeOrdersAcrossNodes(t *testing.T) {
	a, b := NewRecorder(64), NewRecorder(64)
	a.Emit("m.a1")
	b.Emit("m.b1")
	a.Emit("m.a2")

	merged := Merge(map[string]Dump{"alpha": a.Dump(), "beta": b.Dump()})
	if len(merged) != 3 {
		t.Fatalf("merged %d events, want 3", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Time.Before(merged[i-1].Time) {
			t.Fatalf("merged timeline out of order at %d: %v", i, merged)
		}
	}
	nodes := map[string]bool{}
	for _, ev := range merged {
		if ev.Node == "" {
			t.Fatalf("merged event missing node stamp: %+v", ev)
		}
		nodes[ev.Node] = true
	}
	if !nodes["alpha"] || !nodes["beta"] {
		t.Fatalf("node stamps: %v", nodes)
	}
}

func TestDumpTextAndString(t *testing.T) {
	r := NewRecorder(64)
	r.Emit("text.event", KV{K: "k", V: "v"})
	var b bytes.Buffer
	r.DumpText(&b)
	out := b.String()
	if !strings.Contains(out, "1 events (0 dropped)") {
		t.Errorf("DumpText header:\n%s", out)
	}
	if !strings.Contains(out, "text.event k=v") {
		t.Errorf("DumpText line:\n%s", out)
	}
	ev := r.Events()[0]
	ev.Node = "n1"
	if s := ev.String(); !strings.Contains(s, "[n1] text.event k=v") {
		t.Errorf("String() = %q", s)
	}
}
