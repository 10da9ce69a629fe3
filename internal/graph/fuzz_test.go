package graph

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// fuzzLimits keeps fuzzed numeric ids small enough that no input makes
// the builder allocate more than a few megabytes.
var fuzzLimits = Limits{MaxEdges: 1 << 16, MaxNodeID: 1 << 16}

// FuzzReadEdgeList checks the bounded parser never panics on arbitrary
// input, that accepted inputs survive a write/read round trip, and that
// the weighted reader, fed the same lines with a probability column
// appended, accepts exactly the same inputs and agrees on the node set and
// on numeric vs. label mode.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\nalpha beta\n\nbeta gamma\n")
	f.Add("9 9\n")
	f.Add("a  b\t\n")
	f.Add("0 1 2\n")
	f.Add(strings.Repeat("1 2\n", 100))
	f.Add("0 2000000000\n")
	f.Add("+1 2000000000\n")
	f.Add("007 7\r\n0 99999999999999999999\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeListWithin(strings.NewReader(input), fuzzLimits)
		if errors.Is(err, errLimit) {
			return // the unbounded weighted reader would allocate it all
		}
		gw, w, werr := ReadWeightedEdgeList(strings.NewReader(withProbability(input)))
		if (err == nil) != (werr == nil) {
			t.Fatalf("readers disagree: plain %v, weighted %v", err, werr)
		}
		if err != nil {
			return
		}
		if gw.N() != g.N() || gw.M() != g.M() || gw.HasLabels() != g.HasLabels() {
			t.Fatalf("weighted read (%d nodes, %d edges, labels %v) differs from plain (%d, %d, %v)",
				gw.N(), gw.M(), gw.HasLabels(), g.N(), g.M(), g.HasLabels())
		}
		for v := 0; v < g.N(); v++ {
			if gw.Label(v) != g.Label(v) {
				t.Fatalf("node %d: weighted label %q, plain %q", v, gw.Label(v), g.Label(v))
			}
		}
		for _, e := range g.Edges() {
			if p := w(e[0], e[1]); p != 0.5 {
				t.Fatalf("edge %v: weight %v, want 0.5", e, p)
			}
		}

		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		g2, err := ReadEdgeListWithin(&buf, fuzzLimits)
		if err != nil {
			t.Fatalf("re-read of own output: %v", err)
		}
		if g2.M() != g.M() {
			t.Fatalf("round trip changed edge count %d → %d", g.M(), g2.M())
		}
	})
}

// withProbability appends a probability column to every edge line of an
// edge list, leaving comments and blank lines as they are.
func withProbability(input string) string {
	var sb strings.Builder
	for line := range strings.Lines(input) {
		if f := strings.Fields(line); len(f) == 0 || strings.HasPrefix(f[0], "#") {
			sb.WriteString(line)
			continue
		}
		body, nl := strings.CutSuffix(line, "\n")
		sb.WriteString(body + " 0.5")
		if nl {
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// FuzzBuilder checks that arbitrary edge batches either build a consistent
// graph or fail cleanly (self-loops).
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2})
	f.Add([]byte{3, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := NewBuilder(0)
		selfLoop := false
		for i := 0; i+1 < len(data); i += 2 {
			u, v := int(data[i]%32), int(data[i+1]%32)
			b.AddEdge(u, v)
			if u == v {
				selfLoop = true
			}
		}
		g, err := b.Build()
		if selfLoop {
			if err == nil {
				t.Fatal("self-loop accepted")
			}
			return
		}
		if err != nil {
			t.Fatalf("clean input rejected: %v", err)
		}
		// CSR consistency: out and in edge counts agree and every edge is
		// visible from both sides.
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Out(u) {
				found := false
				for _, p := range g.In(v) {
					if p == u {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("edge (%d,%d) missing from in-adjacency", u, v)
				}
			}
		}
	})
}
