package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"testing"
)

// legacyEncode frames an envelope the way the pre-pipelining encoder did:
// one json.Marshal of the whole Envelope behind the 4-byte length header.
// The zero-allocation codec must stay byte-compatible with this forever —
// old peers decode new frames and vice versa.
func legacyEncode(t *testing.T, env *Envelope) []byte {
	t.Helper()
	body, err := json.Marshal(env)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	frame := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(frame, uint32(len(body)))
	copy(frame[4:], body)
	return frame
}

// FuzzEnvelope pins the zero-allocation codec to encoding/json: for every
// reachable envelope shape WriteMessage must frame the exact bytes
// json.Marshal produces (field order, omitempty, string escaping
// including HTML escapes, invalid UTF-8 replacement, and U+2028/U+2029),
// so frames written by either encoder decode identically on either side.
func FuzzEnvelope(f *testing.F) {
	f.Add("renew", uint64(7), "0123456789abcdef0123456789abcdef", uint64(3), true, []byte(`{"slid":"s","license":"l"}`))
	f.Add("", uint64(0), "", uint64(0), false, []byte(``))
	f.Add("wei\x00rd<&>\"\\", uint64(1), "tr\xfface  ", uint64(0), true, []byte(`not json`))
	f.Add("ok", uint64(math.MaxUint64), "t", uint64(math.MaxUint64), true, []byte(`[1, 2, {"a": null}]`))
	f.Add("error", uint64(2), "", uint64(9), true, []byte("{\"message\":\"\\u2028\\tkaput\"}"))
	f.Fuzz(func(t *testing.T, msgType string, id uint64, traceID string, spanID uint64, hasTrace bool, payload []byte) {
		env := Envelope{Type: msgType, ID: id}
		if hasTrace {
			env.Trace = &TraceContext{TraceID: traceID, SpanID: spanID}
		}
		if len(payload) != 0 {
			// Envelope payloads are compact JSON on the wire. Valid JSON
			// inputs are compacted; everything else rides as a JSON string,
			// which also exercises the string escaper on arbitrary bytes.
			if json.Valid(payload) {
				var buf bytes.Buffer
				if err := json.Compact(&buf, payload); err != nil {
					t.Skip("valid but uncompactable JSON")
				}
				env.Payload = json.RawMessage(buf.Bytes())
			} else {
				quoted, err := json.Marshal(string(payload))
				if err != nil {
					t.Fatalf("quoting payload: %v", err)
				}
				env.Payload = quoted
			}
		}

		legacy := legacyEncode(t, &env)
		if len(legacy)-4 > MaxMessageSize {
			return // both encoders refuse oversize frames
		}
		var p any
		if len(env.Payload) != 0 {
			p = env.Payload
		}
		var fast bytes.Buffer
		if err := WriteMessage(&fast, env.Type, env.ID, p, env.Trace); err != nil {
			t.Fatalf("WriteMessage: %v", err)
		}
		if !bytes.Equal(fast.Bytes(), legacy) {
			t.Fatalf("frame bytes diverge:\n got %q\nwant %q", fast.Bytes(), legacy)
		}

		// Old-encodes → new-decodes and vice versa: both frames decode,
		// and to the same envelope.
		envOld, err := ReadMessage(bytes.NewReader(legacy))
		if err != nil {
			t.Fatalf("decoding legacy frame: %v", err)
		}
		envNew, err := ReadMessage(&fast)
		if err != nil {
			t.Fatalf("decoding fast frame: %v", err)
		}
		if !reflect.DeepEqual(envOld, envNew) {
			t.Fatalf("decoded envelopes diverge:\n old %+v\nnew %+v", envOld, envNew)
		}
	})
}

// TestHotPathEncodingAllocs pins the point of the hand-rolled codec: a
// renewal-shaped frame write allocates nothing once the buffer pool is
// warm.
func TestHotPathEncodingAllocs(t *testing.T) {
	// Box the payload once: interface conversion at the call boundary is
	// the caller's one unavoidable allocation, and the encoder must add
	// none of its own.
	var req any = RenewRequest{SLID: "slid-0001", License: "lic-throughput"}
	// Warm the pool.
	if err := WriteMessage(io.Discard, TypeRenew, 1, req, nil); err != nil {
		t.Fatalf("WriteMessage: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := WriteMessage(io.Discard, TypeRenew, 42, req, nil); err != nil {
			t.Fatalf("WriteMessage: %v", err)
		}
	})
	if allocs > 0 {
		t.Fatalf("hot-path frame write allocates %.1f objects per RPC, want 0", allocs)
	}
}

// TestFastPayloadsMatchMarshal pins every hand-coded payload fast path to
// encoding/json, including omitempty edges the fuzzer may not synthesize
// as typed structs.
func TestFastPayloadsMatchMarshal(t *testing.T) {
	payloads := []any{
		RenewRequest{SLID: "s", License: "l"},
		RenewRequest{},
		RenewRequest{SLID: "we\"ird\\", License: "<&> "},
		RenewResponse{Units: 12, Kind: 1, Counter: 12},
		RenewResponse{Units: -3, Kind: 0, Counter: 0, IntervalNS: 5_000_000},
		ErrorResponse{Message: "ka\nput\xff"},
		ErrorResponse{},
	}
	for _, p := range payloads {
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("json.Marshal(%T): %v", p, err)
		}
		got, ok := appendPayload(nil, p)
		if !ok {
			t.Fatalf("appendPayload(%T): no fast path", p)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%T fast path diverges:\n got %q\nwant %q", p, got, want)
		}
	}
}
