package obs

import (
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
)

// TraceContext is a W3C Trace Context identity (traceparent header,
// version 00): a 16-byte trace id shared by every span of a distributed
// operation, an 8-byte span id for this hop, and the trace flags byte
// (bit 0 = sampled). It is the cross-process half of tracing — the
// in-process half is the stage Trace — and the groundwork for carrying
// request identity across fpd peers in the distributed roadmap item.
type TraceContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Flags   byte
}

// ErrTraceparent is returned by ParseTraceparent for any malformed or
// all-zero header value.
var ErrTraceparent = errors.New("obs: invalid traceparent")

// Valid reports whether both ids are non-zero, as the spec requires.
func (tc TraceContext) Valid() bool {
	return tc.TraceID != [16]byte{} && tc.SpanID != [8]byte{}
}

// String renders the traceparent header value:
// "00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>". An invalid
// (zero) context renders as "".
func (tc TraceContext) String() string {
	if !tc.Valid() {
		return ""
	}
	return fmt.Sprintf("00-%s-%s-%02x",
		hex.EncodeToString(tc.TraceID[:]),
		hex.EncodeToString(tc.SpanID[:]),
		tc.Flags)
}

// ParseTraceparent parses a traceparent header value. Per the W3C spec,
// version "ff" is rejected, unknown versions are accepted as long as the
// version-00 prefix parses, and all-zero trace or span ids are invalid.
func ParseTraceparent(s string) (TraceContext, error) {
	// Shortest valid form: "00-" + 32 + "-" + 16 + "-" + 2 = 55 bytes.
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceContext{}, ErrTraceparent
	}
	if len(s) > 55 && s[55] != '-' {
		// A longer value is only valid for future versions, which must
		// extend with a dash-separated suffix.
		return TraceContext{}, ErrTraceparent
	}
	version := s[0:2]
	if version == "ff" || !isHex(version) {
		return TraceContext{}, ErrTraceparent
	}
	if version == "00" && len(s) != 55 {
		return TraceContext{}, ErrTraceparent
	}
	var tc TraceContext
	if _, err := hex.Decode(tc.TraceID[:], []byte(s[3:35])); err != nil {
		return TraceContext{}, ErrTraceparent
	}
	if _, err := hex.Decode(tc.SpanID[:], []byte(s[36:52])); err != nil {
		return TraceContext{}, ErrTraceparent
	}
	flags, err := hex.DecodeString(s[53:55])
	if err != nil {
		return TraceContext{}, ErrTraceparent
	}
	tc.Flags = flags[0]
	if !tc.Valid() {
		return TraceContext{}, ErrTraceparent
	}
	return tc, nil
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// NewTraceContext mints a fresh sampled trace identity from
// crypto/rand. Randomness failure (never on supported platforms) is
// masked by a fixed fallback id rather than panicking a serving path.
func NewTraceContext() TraceContext {
	var tc TraceContext
	if _, err := crand.Read(tc.TraceID[:]); err != nil || tc.TraceID == [16]byte{} {
		tc.TraceID[15] = 1
	}
	if _, err := crand.Read(tc.SpanID[:]); err != nil || tc.SpanID == [8]byte{} {
		tc.SpanID[7] = 1
	}
	tc.Flags = 0x01
	return tc
}

// Child derives a new span under the same trace: fresh span id, same
// trace id and flags. Used when fpd continues a trace a client started.
func (tc TraceContext) Child() TraceContext {
	out := tc
	if _, err := crand.Read(out.SpanID[:]); err != nil || out.SpanID == [8]byte{} {
		out.SpanID[7] ^= 0xff
	}
	return out
}
