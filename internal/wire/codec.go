package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Zero-allocation envelope encoding for the hot path. The envelope wrapper
// — type tag, correlation ID, trace context, framing header — is appended
// by hand into a pooled buffer and written with a single Write, so a
// renewal round trip allocates nothing for its framing. The output is
// byte-compatible with encoding/json's encoding of Envelope (same field
// order, same omitempty behavior, same string escaping including HTML
// escapes and invalid-UTF-8 replacement); FuzzEnvelope pins that
// equivalence.
//
// Hot payload types (renew, error/ok) are appended by hand too;
// everything else falls back to one json.Marshal for the payload only.

// framePool recycles frame-encoding buffers across RPCs. Buffers above
// 64 KiB are dropped instead of pooled so one huge replication batch does
// not pin its footprint forever.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

const framePoolMaxCap = 64 << 10

// WriteMessage frames and writes one envelope: msgType, a correlation ID
// (0 omits the field), an optional trace context (nil for untraced
// messages) and the payload. The frame — 4-byte big-endian length header
// plus the JSON body — is encoded into a pooled buffer and written with
// ONE Write call, so message boundaries align with Write boundaries
// (which fault injectors that reorder or drop whole writes rely on).
func WriteMessage(w io.Writer, msgType string, id uint64, payload any, tc *TraceContext) error {
	bp := framePool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, 0, 0, 0, 0) // header placeholder, patched below
	buf = appendMessageHead(buf, msgType, id, tc)
	if payload != nil {
		buf = append(buf, `,"payload":`...)
		var ok bool
		buf, ok = appendPayload(buf, payload)
		if !ok {
			raw, err := json.Marshal(payload)
			if err != nil {
				putFrameBuf(bp, buf)
				return fmt.Errorf("wire: marshaling payload: %w", err)
			}
			buf = append(buf, raw...)
		}
	}
	buf = append(buf, '}')
	body := len(buf) - 4
	if body > MaxMessageSize {
		putFrameBuf(bp, buf)
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", body)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(body))
	_, err := w.Write(buf)
	putFrameBuf(bp, buf)
	if err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

func putFrameBuf(bp *[]byte, buf []byte) {
	if cap(buf) > framePoolMaxCap {
		return
	}
	*bp = buf
	framePool.Put(bp)
}

// appendMessageHead appends the envelope object up to (not including)
// the payload field and closing brace: {"type":...,"id":...,"trace":{...}
func appendMessageHead(dst []byte, msgType string, id uint64, tc *TraceContext) []byte {
	dst = append(dst, `{"type":`...)
	dst = appendJSONString(dst, msgType)
	if id != 0 {
		dst = append(dst, `,"id":`...)
		dst = strconv.AppendUint(dst, id, 10)
	}
	if tc != nil {
		dst = append(dst, `,"trace":{"trace_id":`...)
		dst = appendJSONString(dst, tc.TraceID)
		if tc.SpanID != 0 {
			dst = append(dst, `,"span_id":`...)
			dst = strconv.AppendUint(dst, tc.SpanID, 10)
		}
		dst = append(dst, '}')
	}
	return dst
}

// appendPayload appends the JSON encoding of the hand-coded hot-path
// payload types. ok=false means the caller must fall back to json.Marshal.
func appendPayload(dst []byte, payload any) (_ []byte, ok bool) {
	switch p := payload.(type) {
	case RenewRequest:
		dst = append(dst, `{"slid":`...)
		dst = appendJSONString(dst, p.SLID)
		dst = append(dst, `,"license":`...)
		dst = appendJSONString(dst, p.License)
		return append(dst, '}'), true
	case RenewResponse:
		dst = append(dst, `{"units":`...)
		dst = strconv.AppendInt(dst, p.Units, 10)
		dst = append(dst, `,"kind":`...)
		dst = strconv.AppendUint(dst, uint64(p.Kind), 10)
		dst = append(dst, `,"counter":`...)
		dst = strconv.AppendInt(dst, p.Counter, 10)
		if p.IntervalNS != 0 {
			dst = append(dst, `,"interval_ns":`...)
			dst = strconv.AppendInt(dst, p.IntervalNS, 10)
		}
		return append(dst, '}'), true
	case ErrorResponse:
		dst = append(dst, `{"message":`...)
		dst = appendJSONString(dst, p.Message)
		return append(dst, '}'), true
	}
	return dst, false
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, matching encoding/json's
// escaping exactly: ", \, and control characters escaped (\b \f \n \r \t
// by name, the rest as \u00xx), HTML-sensitive <, >, & as \u00xx escapes,
// invalid UTF-8 bytes replaced with �, and U+2028/U+2029 escaped for
// JavaScript embedding.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"':
				dst = append(dst, '\\', '"')
			case '\\':
				dst = append(dst, '\\', '\\')
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
