package obs

import (
	"strings"
	"testing"
)

func TestParseTraceparentRoundTrip(t *testing.T) {
	const hdr = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tc, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", hdr, err)
	}
	if !tc.Valid() {
		t.Fatal("parsed context reports invalid")
	}
	if tc.Flags != 0x01 {
		t.Errorf("Flags = %#x, want 0x01", tc.Flags)
	}
	if got := tc.String(); got != hdr {
		t.Errorf("String() = %q, want round-trip %q", got, hdr)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // missing flags
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",   // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",   // zero span id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // version ff forbidden
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // v00 must be exactly 55 bytes
		"00-ZZf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // non-hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // wrong separator
		"0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // non-hex version
	}
	for _, s := range bad {
		if _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted, want error", s)
		}
	}
	// Future versions with a dash-separated suffix are accepted.
	if _, err := ParseTraceparent("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); err != nil {
		t.Errorf("future-version traceparent rejected: %v", err)
	}
}

func TestNewTraceContextAndChild(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() {
		t.Fatal("NewTraceContext returned an invalid context")
	}
	if tc.Flags&0x01 == 0 {
		t.Error("minted context is not sampled")
	}
	s := tc.String()
	if len(s) != 55 || !strings.HasPrefix(s, "00-") {
		t.Errorf("String() = %q, want 55-byte version-00 header", s)
	}
	child := tc.Child()
	if child.TraceID != tc.TraceID {
		t.Error("Child changed the trace id")
	}
	if child.SpanID == tc.SpanID {
		t.Error("Child kept the parent span id")
	}
	if child.Flags != tc.Flags {
		t.Error("Child changed the flags")
	}
	// Two mints should never collide.
	if other := NewTraceContext(); other.TraceID == tc.TraceID {
		t.Error("two NewTraceContext calls shared a trace id")
	}
}

func TestTraceContextZeroString(t *testing.T) {
	if got := (TraceContext{}).String(); got != "" {
		t.Errorf("zero context String() = %q, want \"\"", got)
	}
}
